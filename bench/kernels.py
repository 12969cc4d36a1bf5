"""Fixed-size timings of single kernels, independent of the workload.

Each is the median of ``REPS`` timed batches, measured with tracing off, on
the D4 group algebra (n = 8) over Q unless the name says otherwise.
"""
from __future__ import annotations

import statistics
import time

REPS = 7
MUL_BATCH = 100_000


def _median_s(fn, batch=1):
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) / batch)
    return statistics.median(times)


def run_kernels(hk) -> dict:
    """``{metric name: (value, samples)}`` for every ``kernel.*`` metric."""
    out = {}
    for key, fld in (("q", hk.fields.QQ), ("gf5", hk.fields.Field.prime(5))):
        a, b, mul = fld.coerce(2), fld.coerce(3), fld.mul

        def muls():
            for _ in range(MUL_BATCH):
                mul(a, b)

        out[f"kernel.field_mul_{key}_ns"] = _median_s(muls, MUL_BATCH) * 1e9

    lm, st = hk.linmap, hk.structures
    d4 = hk.factories.group_algebra(hk.groups.dihedral4(), hk.fields.QQ)
    i1, c = d4.obj.id(1), d4.obj.braid
    out["kernel.tensor_i1_c_i1_n8_ms"] = _median_s(lambda: lm.tensor(i1, c, i1)) * 1e3
    out["kernel.compose_delta_mu_n8_ms"] = _median_s(lambda: lm.compose(d4.delta, d4.mu)) * 1e3
    lhs, rhs = lm.tensor(i1, c, i1), lm.tensor(i1, c, i1)
    if len(lhs.cols) != 4096 or lm.first_mismatch(lhs, rhs) is not None:
        raise RuntimeError("kernel inputs are wrong: tensor(i1, c, i1) at n = 8")
    out["kernel.first_mismatch_equal_n8_ms"] = _median_s(lambda: lm.first_mismatch(lhs, rhs)) * 1e3

    # the n^3 = 512-unknown system behind the curried-action inverse
    alpha = hk.post_hopf.curried_action(hk.post_hopf.trivial_post_hopf(d4))
    alpha = alpha.reshape(alpha.dom, lm.TensorShape((64,)))
    coalg, target = d4.as_coalgebra(), st.dual_algebra(8, hk.fields.QQ)
    out["kernel.convolution_inverse_n8_ms"] = _median_s(
        lambda: st.convolution_inverse(alpha, coalg, target)) * 1e3
    return {name: (value, REPS) for name, value in out.items()}
