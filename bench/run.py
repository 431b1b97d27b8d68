"""Benchmark of the seqcast pipeline: paper-config training, paper-config
evaluation and the CLI pipeline over the nine fixture symbols.

Run from the root of a checkout:

    python3 bench/run.py --workload train-paper --seed 1 --seconds 30 --trace 0

Workloads: train-paper, evaluate-paper, pipeline-tiny. `--trace 1` makes the
traced run that reports the per-layer metrics. `--toy` shrinks every workload
to a few seconds for the smoke test. The program is imported from `src/` of
the same checkout; outputs go to `.bench_out/`.
"""

import os

# One BLAS thread, fixed before numpy is imported: the paper-config GEMMs are
# too small to gain from more, and an unpinned count would measure the
# machine's load rather than the code.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "seqcast" / "__init__.py").is_file():
        print(f"error: no seqcast package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ.pop("SEQCAST_DATA_DIR", None)  # the bundled fixtures only

    started = time.perf_counter()
    import seqcast  # imports numpy

    import harness

    import_s = time.perf_counter() - started
    if Path(seqcast.__file__).resolve().parent != (src / "seqcast").resolve():
        print(f"error: imported seqcast from {seqcast.__file__}, not {src}", file=sys.stderr)
        return 2
    return harness.run(args, import_s=import_s, root=ROOT, blas_threads=BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
