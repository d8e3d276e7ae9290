"""The benchmark's three scenario workloads and the seeded scenario text.

Every workload runs at n = 2047, r_max = 40, dt = 1e-3, (p, gamma) as
stated, with initial data c*Q.  The seed draws the sub-threshold
amplitude c in [0.3, 0.8] and, on the scattering workloads, the
amplitude of the repulsive Gaussian potential.  The package only ever
sees the generated scenario text.

Why these three (each later optimisation has one workload that
exercises it and one that bypasses it):

- scatter-newton: the canonical scattering run of acceptance 7/8.
  Time goes to stepping (two O(n) Newton convolutions and two DSTs per
  step); setup and sampling (one sample per 200 steps) are small.
- scatter-dense: the same run at gamma = 1.5, so stepping goes through
  the dense O(n^2) kernel and setup is dominated by kernel assembly and
  the ground-state solve.  The only workload where kernel build matters.
- virial-sampling: acceptance 5's identity-chain setting, sponge off,
  one sample per step with a truncated Morawetz weight.  Time and memory
  go to diagnostics (the O(n^2) pair term); stepping is the minor share.

t_end is shorter than the physics runs (t = 30) so that one fresh
interpreter finishes in a few seconds and a run holds several of them;
evolve_s_per_t divides by t_end, so it stays comparable.
"""

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    gamma: float
    t_end: float
    sample_every: int
    sponge: bool
    requests: str
    extra_diagnostics: str = ""
    fixed_potential_amplitude: float | None = None

    @property
    def scatter(self):
        return "thresholds" in self.requests

    def expected_samples(self, dt=1e-3):
        n_steps = int(round(self.t_end / dt))
        return 1 + n_steps // self.sample_every + (1 if n_steps % self.sample_every else 0)


WORKLOADS = {
    "scatter-newton": Workload(
        name="scatter-newton", gamma=2.0, t_end=2.0, sample_every=200,
        sponge=True, requests="conservation, thresholds, monitor"),
    "scatter-dense": Workload(
        name="scatter-dense", gamma=1.5, t_end=1.0, sample_every=200,
        sponge=True, requests="conservation, thresholds, monitor"),
    "virial-sampling": Workload(
        name="virial-sampling", gamma=2.0, t_end=0.4, sample_every=1,
        sponge=False, requests="conservation, morawetz",
        extra_diagnostics="morawetz_R = 10.0\nweight = truncated\nweight_R = 15.0\n",
        fixed_potential_amplitude=0.2),
}

C_RANGE = (0.3, 0.8)
POTENTIAL_AMPLITUDE_RANGE = (0.1, 0.4)


def draw_inputs(workload: Workload, seed: int) -> dict:
    """Seeded draw of the initial amplitude c and the potential amplitude."""
    rng = random.Random(seed)
    c = round(rng.uniform(*C_RANGE), 6)
    amp = round(rng.uniform(*POTENTIAL_AMPLITUDE_RANGE), 6)
    if workload.fixed_potential_amplitude is not None:
        amp = workload.fixed_potential_amplitude
    return {"c": c, "potential_amplitude": amp}


def scenario_text(workload: Workload, seed: int) -> str:
    inputs = draw_inputs(workload, seed)
    return (
        "[model]\n"
        "p = 3.0\n"
        f"gamma = {workload.gamma!r}\n"
        "\n[grid]\n"
        "r_max = 40.0\n"
        "n = 2047\n"
        "\n[potential]\n"
        "kind = gaussian\n"
        f"amplitude = {inputs['potential_amplitude']!r}\n"
        "width = 2.0\n"
        "\n[initial]\n"
        "kind = ground_state\n"
        f"c = {inputs['c']!r}\n"
        "\n[evolve]\n"
        "dt = 1e-3\n"
        f"t_end = {float(workload.t_end)!r}\n"
        f"sample_every = {workload.sample_every}\n"
        f"sponge = {'on' if workload.sponge else 'off'}\n"
        "\n[diagnostics]\n"
        f"requests = {workload.requests}\n"
        "monitor_R = 10.0\n"
        "monitor_eps = 0.3\n"
        + workload.extra_diagnostics
    )
