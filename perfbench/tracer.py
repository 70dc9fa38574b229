"""Run one sgdlsq CLI command in-process with a span around each layer.

    python3 perfbench/tracer.py TRACE.json -- CLI-ARGS...

The wrappers replace the module attributes through which callers reach
each layer's public functions (``sgdlsq.cli.run_sgm``,
``sgdlsq.decomposition.run_sgm``, ``sgdlsq.iterations.run_sgm``, ...),
so the layers are timed from outside and the package itself is left as
it is. A span records its name, its parent, its start and end, and the
work counts read off its arguments and result. Self time is a span's
duration minus the durations of its direct children.

TRACE.json receives the exit code, the traced wall time (from the top
of this script to the return of ``main``), and per span name the call
count, inclusive seconds, self seconds and summed work counts.
"""

import inspect
import json
import sys
from time import perf_counter

T_START = perf_counter()


class Recorder:
    """In-memory span list; spans nest by call order."""

    def __init__(self):
        self.spans = []  # [name, parent index or None, start, end, counts]
        self.stack = []

    def wrap(self, name, func, count=None, fold_into=()):
        """Span-recording stand-in for ``func``.

        A call made directly inside a span named in ``fold_into`` gets no
        span of its own: its time and work belong to that parent.
        """
        bind = inspect.signature(func).bind if count else None

        def wrapper(*args, **kwargs):
            if self.stack and self.spans[self.stack[-1]][0] in fold_into:
                return func(*args, **kwargs)
            rec = [name, self.stack[-1] if self.stack else None, 0.0, 0.0, None]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                self.stack.pop()
            if count:
                rec[4] = count(bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def summary(self):
        """Per span name: calls, inclusive s, self s and summed counts."""
        child_s = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out = {}
        for i, (name, _, start, end, counts) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child_s[i]
            for key, val in (counts or {}).items():
                agg[key] = agg.get(key, 0) + val
        return out


def _width(sample, ctx):
    """Length of the vector one sampled gradient row is dotted with."""
    return sample.m if ctx is not None else sample.dim


def _sgm(a, result):
    plan = a["plan"]
    return {"steps": plan.T, "grad_evals": plan.T * plan.b,
            "work": plan.T * plan.b * _width(a["sample"], a["ctx"])}


def _batch(a, result):
    return {"steps": a["T"]}


def _population(a, result):
    surrogate = a["surrogate"]
    n = surrogate.n if hasattr(surrogate, "gram") else len(surrogate)
    width = n if hasattr(surrogate, "gram") else result.final.coeffs.shape[0]
    return {"steps": a["T"], "bytes": a["T"] * n * width * 8}


def _gram(a, result):
    return {"entries": result.n * result.n}


def _matrix(a, result):
    return {"entries": result.shape[0] * result.shape[1]}


def _points(a, result):
    return {"points": result.shape[0]}


def _holdout(a, result):
    return {"checkpoints": len(result.checkpoints)}


def _verdicts(a, result):
    return {"verdicts": len(result)}


def _rows(a, result):
    return {"rows": result.m}


# (span name, module, attribute, work counter, fold_into)
LAYERS = (
    ("iterations.sgm", "sgdlsq.iterations", "run_sgm", _sgm, ()),
    ("iterations.batch", "sgdlsq.iterations", "run_batch_gm", _batch, ()),
    ("iterations.population", "sgdlsq.iterations", "run_population", _population, ()),
    ("iterations.plan", "sgdlsq.iterations", "sample_index_plan", None, ()),
    ("kernels.gram", "sgdlsq.kernels", "build_gram", _gram, ()),
    # a cross matrix built as part of a Gram is Gram work
    ("kernels.cross", "sgdlsq.kernels", "cross_matrix", _matrix, ("kernels.gram",)),
    ("spaces.anchor_build", "sgdlsq.spaces", "AnchorSet.build", None, ()),
    ("spaces.predict", "sgdlsq.spaces", "predict", _points, ()),
    ("stopping.holdout", "sgdlsq.stopping", "holdout_stop", _holdout, ()),
    ("decomposition.decompose", "sgdlsq.decomposition", "decompose", None, ()),
    ("decomposition.decompose_batch", "sgdlsq.decomposition", "decompose_batch", None, ()),
    ("decomposition.excess_risk", "sgdlsq.decomposition", "excess_risk", None, ()),
    ("bounds.sweep", "sgdlsq.bounds", "acceptance_sweep", _verdicts, ()),
    ("bounds.contraction", "sgdlsq.bounds", "sweep_contraction", None, ()),
    ("data.load_csv", "sgdlsq.data", "load_csv", _rows, ()),
    ("data.gen", "sgdlsq.data", "gen_synthetic_abs", None, ()),
)


def install(recorder):
    """Wrap every LAYERS function wherever a package module refers to it.

    Returns the span names whose function no longer exists, so a renamed
    layer shows up as missing instead of as silently untimed work.
    """
    modules = [mod for name, mod in sys.modules.items()
               if name == "sgdlsq" or name.startswith("sgdlsq.")]
    missing = []
    for span, modname, attr, count, fold_into in LAYERS:
        owner = sys.modules.get(modname)
        cls_name, _, meth = attr.rpartition(".")
        holder = getattr(owner, cls_name, None) if cls_name else owner
        if holder is None or not hasattr(holder, meth):
            missing.append(span)
            continue
        if cls_name:
            func = holder.__dict__[meth].__func__
            setattr(holder, meth, classmethod(recorder.wrap(span, func, count, fold_into)))
            continue
        func = getattr(holder, meth)
        wrapper = recorder.wrap(span, func, count, fold_into)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is func:
                    setattr(mod, key, wrapper)
    return missing


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py TRACE.json -- CLI-ARGS...", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    recorder = Recorder()
    cli = recorder.wrap("proc.import", __import__)("sgdlsq.cli", fromlist=["main"])
    missing = install(recorder)
    rc = recorder.wrap("cli", cli.main)(cli_args)
    wall = perf_counter() - T_START
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "wall_s": wall, "missing": missing,
                   "layers": recorder.summary()}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
