"""One traced CLI process: ``regsing.cli`` main with the span wrappers installed.

    python3 perfbench/clichild.py <regsing cli arguments> --trace-out FILE --request-id N

Prints exactly what ``python -m regsing.cli`` prints and exits with its
code; the time of ``import regsing.cli`` and the spans go to FILE.
"""

import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    i = argv.index("--trace-out")
    out_path, request_id = argv[i + 1], int(argv[i + 3])
    cli_args = argv[:i]
    t0 = time.perf_counter()
    import regsing.cli

    import_ms = (time.perf_counter() - t0) * 1e3
    import spans

    tracer = spans.Tracer()
    tracer.install()
    tracer.begin_request(request_id)
    try:
        code = regsing.cli.main(cli_args)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.save(out_path, {"import_ms": import_ms})
    return code


if __name__ == "__main__":
    sys.exit(main())
