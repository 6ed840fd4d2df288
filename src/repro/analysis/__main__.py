"""``python -m repro.analysis`` — the analyzer CLI
(:mod:`repro.analysis.cli`; ``--help`` lists its flags)."""

import sys

from repro.analysis.cli import main

if __name__ == "__main__":
    sys.exit(main())
