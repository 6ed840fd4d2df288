"""``python -m repro.sanitize`` — runs ``python -m repro.analysis``
(:mod:`repro.analysis.cli`); kept for one more round."""

from repro.analysis.cli import main

raise SystemExit(main())
