"""Plan factories: the SKU arrives as a parameter, so the intra COST
pass must skip these constructions as unknowable."""

from repro.cloud.bootstrap import BootstrapScript


def make_plan(itype, n, hours):
    return BootstrapScript(itype, n, expected_hours=hours)


def make_default_plan(itype):
    return BootstrapScript(itype)
