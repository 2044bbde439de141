"""One benchmark stage in a fresh process: `stochmaxwell <subcommand> ...`.

    python3 bench/stage.py --timing T.json [--trace S.json --run-id ID] -- forward --config ...
    python3 bench/stage.py --timing T.json --setup-only --config C.ini

Records the process's CPU seconds when the package is imported and the
config parsed ("ready"), and its CPU and CLOCK_MONOTONIC seconds around the
entry point, then exits with the entry point's code. BLAS threads are
limited by the parent's environment; scipy.fft's `workers=-1` is resolved
to one worker here, so the process runs on one thread. With --trace the
program's layers are wrapped first and the spans are written at exit.
--setup-only stops at "ready".
"""
import argparse
import json
import os
import sys
import time


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--timing", required=True)
    p.add_argument("--trace", default=None)
    p.add_argument("--run-id", default="stage")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--config", default=None)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = p.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    config = args.config or argv[argv.index("--config") + 1]

    # scipy.fft resolves workers=-1 through this count; one worker, like BLAS
    import scipy.fft._pocketfft.helper as pocketfft_helper

    pocketfft_helper._cpu_count = 1
    import stochmaxwell.cli as cli
    from stochmaxwell.config import ExperimentConfig

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"stochmaxwell imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    ExperimentConfig.from_file(config)
    marks = {"cpu_ready": time.process_time()}

    tracer = None
    if args.trace and not args.setup_only:
        from tracer import Tracer

        tracer = Tracer(args.run_id)
        tracer.install()

    rc = 0
    if not args.setup_only:
        marks["main_start"] = time.monotonic()
        marks["cpu_main_start"] = time.process_time()
        rc = cli.main(argv)
        marks["cpu_main_end"] = time.process_time()
        marks["main_end"] = time.monotonic()
    marks["rc"] = rc
    with open(args.timing, "w") as fh:
        json.dump(marks, fh)
    if tracer is not None:
        tracer.dump(args.trace)
    return rc


if __name__ == "__main__":
    sys.exit(main())
