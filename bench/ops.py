"""The operations the benchmark times, each one call into lerchkit.

Calls go through module attributes (``eval_core.phi``, not a name bound
at import), so the traced run's wrappers see them.  Import this module
only once lerchkit is importable.
"""

from fractions import Fraction

from lerchkit import deformed_polylog, eval_core


def phi_op(point):
    s, z, c = point[:3]
    return eval_core.phi(s, z, c)


def transport_op(case):
    m, c, gen = case
    loop = (deformed_polylog.z0_loop() if gen == "Z0"
            else deformed_polylog.z1_loop())
    return deformed_polylog.numeric_transport(m, c, loop)


_WARM_PHI = (
    (2.0, 0.5, 1.0),                       # series
    (2.0, 0.9 + 0.1j, 0.5),                # integral
    (2.0, 0.5j, -1.5 + 0.2j),              # c_shift
    (-1.5, 0.9j, 0.3),                     # reflection
    (-3, Fraction(1, 3), Fraction(1, 2)),  # rational
)


def warm_up(workload):
    """Untimed work done before the timed phase: fills the package's
    own caches and the interpreter's, as a long-running caller would."""
    if workload in ("box", "disk"):
        for point in _WARM_PHI:
            phi_op(point)
    elif workload == "transport":
        transport_op((1, 0.5, "Z0"))
    elif workload == "session":
        from lerchkit import cli
        cli.build_parser()
    else:
        raise ValueError("unknown workload %r" % workload)
