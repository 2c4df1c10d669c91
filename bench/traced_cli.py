"""Run ``openevt.cli.main`` with the layer wrappers installed and write the
recorded spans to a file; the traced counterpart of ``python -m openevt.cli``.

Usage: python traced_cli.py SPANS_OUT CLI_ARG...
"""

import sys

import spans


def main(argv) -> int:
    out, cli_args = argv[0], argv[1:]
    recorder = spans.Recorder()
    spans.Wrappers(recorder).install()
    from openevt import cli

    try:
        return cli.main(cli_args)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
