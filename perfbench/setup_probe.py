"""Time a workload's set-up in a fresh process.

    python3 perfbench/setup_probe.py SPECS-JSON

Imports ``sgdlsq.cli`` and builds the inputs of each of the workload's
commands (one spec per command that has inputs) through the same public
calls the CLI makes before the command's first iteration: sample generation or CSV load, split, scaling, anchor sets
and cross matrices, index plan. Prints one JSON line holding
``setup_s`` and the machine facts the benchmark records: BLAS build and
thread count, numpy and Python versions.
"""

import json
import sys
from time import perf_counter


def build_inputs(spec):
    from sgdlsq import (AnchorSet, KernelSpec, StepSchedule, cross_matrix, gen_synthetic_abs,
                        kappa_sq, load_csv, log_checkpoints, make_rng, minmax_scale, mix_seed,
                        recipe, sample_index_plan, split)

    seed = spec["seed"]
    if spec["kind"] == "decompose":  # as cmd_decompose, then decompose() up to its first run
        sample = gen_synthetic_abs(spec["m"], seed=mix_seed(seed, 0), noise_sd=1.0)
        kernel = KernelSpec("gaussian", sigma=0.2)
        StepSchedule(eta1=spec["eta1"], theta=0.0, kappa_sq=kappa_sq(kernel))
        surr = AnchorSet.build(kernel, make_rng(mix_seed(seed, 1)).random(spec["N"]),
                               check_psd=False)
        log_checkpoints(spec["T"], 25)
        AnchorSet.build(kernel, sample.x, check_psd=None)
        cross_matrix(kernel, surr.points, sample.x)
    elif spec["kind"] == "rates":  # as cmd_rates up to its first trial's run
        m = spec["m"]
        kernel = KernelSpec("gaussian", sigma=0.2)
        make_rng(mix_seed(seed, 0)).random(spec["N"])
        rec = recipe("C3", m)
        stream = mix_seed(seed, 1)
        sample = gen_synthetic_abs(m, seed=mix_seed(stream, 0), noise_sd=1.0)
        AnchorSet.build(kernel, sample.x, check_psd=False)
        sample_index_plan(m, rec.b, rec.t_star, mix_seed(stream, 1))
    elif spec["kind"] == "run":  # as cmd_run with --scale --recipe C4 --sigma 1.0
        sample, _ = minmax_scale(load_csv(spec["data"]))
        train, _, _ = split(sample, [0.7, 0.15, 0.15], seed=mix_seed(seed, 1))
        kernel = KernelSpec("gaussian", sigma=1.0)
        kappa_sq(kernel, train.x)
        AnchorSet.build(kernel, train.x, check_psd=False)
        rec = recipe("C4", train.m)
        sample_index_plan(train.m, rec.b, rec.t_star, mix_seed(seed, 2))
    else:
        raise ValueError(f"unknown set-up kind {spec['kind']!r}")


def machine():
    import ctypes
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration"), "blas_threads": threads}


def main(argv):
    specs = json.loads(argv[0])
    t0 = perf_counter()
    import sgdlsq.cli  # noqa: F401  the CLI's import cost is part of set-up
    for spec in specs:
        build_inputs(spec)
    setup_s = perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "machine": machine()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
