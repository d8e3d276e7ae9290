"""Spans around calls into the package's public names, kept in memory.

Only public names are wrapped, by replacing the attribute on the module
or class that owns it and on every ``hartree_lab`` module that imported
it (aliases included).  A name that no longer exists is skipped, so its
counts read 0 instead of failing the run.  Nothing under ``src/`` is
edited.
"""

import functools
import statistics
import sys
import time

STEP_NAMES = ("Stepper.step_values", "Stepper.step_values_linear_first",
              "Stepper.step_values_lie")
# diagnostics evolve() calls directly while sampling
SAMPLE_NAMES = ("energy", "potential_energy", "morawetz_z", "morawetz_zpp",
                "l2_norm_sq", "grad_norm_sq_spectral", "lp_norm", "mass_in_ball")
TRANSFORM_NAMES = ("dst", "dct")

# (module, attribute path, span name); a dotted path names a method
TARGETS = (
    ("hartree_lab.riesz", "build_kernel", "build_kernel"),
    ("hartree_lab.riesz", "RieszKernel.apply", "apply"),
    ("hartree_lab.riesz", "potential_energy", "potential_energy"),
    ("hartree_lab.groundstate", "solve_ground_state", "solve_ground_state"),
    ("hartree_lab.evolve", "evolve", "evolve"),
    ("hartree_lab.evolve", "Stepper.step_values", "Stepper.step_values"),
    ("hartree_lab.evolve", "Stepper.step_values_linear_first",
     "Stepper.step_values_linear_first"),
    ("hartree_lab.evolve", "Stepper.step_values_lie", "Stepper.step_values_lie"),
    ("hartree_lab.potentials", "energy", "energy"),
    ("hartree_lab.morawetz", "morawetz_z", "morawetz_z"),
    ("hartree_lab.morawetz", "morawetz_zpp", "morawetz_zpp"),
    ("hartree_lab.morawetz", "nonlocal_pair_term", "nonlocal_pair_term"),
    ("hartree_lab.grid", "l2_norm_sq", "l2_norm_sq"),
    ("hartree_lab.grid", "grad_norm_sq_spectral", "grad_norm_sq_spectral"),
    ("hartree_lab.grid", "lp_norm", "lp_norm"),
    ("hartree_lab.grid", "mass_in_ball", "mass_in_ball"),
    ("hartree_lab.scenario", "parse_scenario", "parse_scenario"),
    ("hartree_lab.scenario", "run_scenario", "run_scenario"),
    ("hartree_lab.scenario", "write_diagnostics_csv", "write_diagnostics_csv"),
    ("scipy.fft", "dst", "dst"),
    ("scipy.fft", "dct", "dct"),
)

# values read off a call's result and kept on its span
KEEP = {"solve_ground_state": lambda gs: getattr(gs, "iterations", 0)}

# span fields
NAME, START, END, PARENT, VALUE = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, keep=None):
        """Span-recording wrapper; ``keep(result)`` is stored on the span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if keep is not None:
                span[VALUE] = keep(out)
            return out

        return wrapper

    def install(self):
        """Wrap every target that exists; return the names that do not."""
        missing = []
        for modname, path, name in TARGETS:
            owner = sys.modules.get(modname)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None)
            if orig is None:
                missing.append(f"{modname}.{path}")
                continue
            keep = KEEP.get(name)
            wrapped = self.wrap(name, orig, keep)
            setattr(owner, attr, wrapped)
            if not cls_path:
                for mname, mod in list(sys.modules.items()):
                    if mname.split(".")[0] != "hartree_lab" or mod is None:
                        continue
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)
        return missing


def _median_us(durations):
    return statistics.median(durations) * 1e6 if durations else 0.0


def layer_metrics(spans):
    """Per-layer counts and times from one run's spans.

    A call counts "per step" or "per sample" by its nearest enclosing
    step span or top-level diagnostics span inside evolve().  A sample
    is a run of top-level diagnostics spans inside evolve() that no step
    interrupts.
    """
    def dur(s):
        return s[END] - s[START]

    def named(*names):
        return [s for s in spans if s[NAME] in names]

    evolves = [i for i, s in enumerate(spans) if s[NAME] == "evolve"]
    ev = evolves[0] if evolves else None
    category = []
    for s in spans:
        par = s[PARENT]
        if s[NAME] in STEP_NAMES:
            category.append("step")
        elif par == ev and ev is not None and s[NAME] in SAMPLE_NAMES:
            category.append("sample")
        else:
            category.append(category[par] if par >= 0 else None)

    steps = [s for s, c in zip(spans, category) if s[NAME] in STEP_NAMES and c == "step"]
    sample_groups = []
    group = None
    for s in spans:
        if ev is None or s[PARENT] != ev:
            continue
        if s[NAME] in STEP_NAMES:
            group = None
        elif s[NAME] in SAMPLE_NAMES:
            if group is None:
                group = [s[START], s[END]]
                sample_groups.append(group)
            group[1] = s[END]

    def count_in(names, cat):
        return sum(1 for s, c in zip(spans, category) if s[NAME] in names and c == cat)

    n_steps = len(steps)
    n_samples = len(sample_groups)
    step_s = sum(dur(s) for s in steps)
    diag_s = sum(b - a for a, b in sample_groups)
    evolve_s = dur(spans[ev]) if ev is not None else 0.0
    applies = named("apply")
    zpps = named("morawetz_zpp")
    gs = named("solve_ground_state")
    runs = named("run_scenario")
    writes = named("write_diagnostics_csv")
    return {
        "riesz.build_s": sum(dur(s) for s in named("build_kernel")),
        "groundstate.solve_s": sum(dur(s) for s in gs),
        "groundstate.iterations": sum(s[VALUE] or 0 for s in gs),
        "riesz.apply_calls": len(applies),
        "riesz.apply_us": _median_us([dur(s) for s in applies]),
        "riesz.apply_per_step": count_in(("apply",), "step") / max(n_steps, 1),
        "evolve.steps": n_steps,
        "evolve.step_us": _median_us([dur(s) for s in steps]),
        "evolve.step_s": step_s,
        "evolve.self_s": evolve_s - step_s - diag_s,
        "grid.transforms_per_step": count_in(TRANSFORM_NAMES, "step") / max(n_steps, 1),
        "evolve.samples": n_samples,
        "evolve.diag_s": diag_s,
        "riesz.apply_per_sample": count_in(("apply",), "sample") / max(n_samples, 1),
        "grid.transforms_per_sample":
            count_in(TRANSFORM_NAMES, "sample") / max(n_samples, 1),
        "grid.transform_us": _median_us([dur(s) for s in named(*TRANSFORM_NAMES)]),
        "potentials.energy_us": _median_us([dur(s) for s in named("energy")]),
        "morawetz.zpp_calls": len(zpps),
        "morawetz.zpp_us": _median_us([dur(s) for s in zpps]),
        "morawetz.zpp_first_s": dur(zpps[0]) if zpps else 0.0,
        "morawetz.pair_us": _median_us([dur(s) for s in named("nonlocal_pair_term")]),
        "scenario.parse_s": sum(dur(s) for s in named("parse_scenario")),
        "scenario.post_s": (runs[0][END] - spans[ev][END]) if runs and ev is not None else 0.0,
        "scenario.write_s": sum(dur(s) for s in writes),
    }
