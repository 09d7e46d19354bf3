import numpy as np
import pytest

from dephaser import channels as chn
from dephaser import superchannels as sup
from dephaser.fixtures import (hadamard_channel, qubit_sign_flip_superchannel,
                               three_level_npt_superchannel)
from dephaser.linalg import partial_trace, partial_transpose
from dephaser.sampling import Rng, haar_unitary, random_state

KET0 = np.diag([1.0, 0.0]).astype(complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)


def unequal_blocks_matrix():
    # PSD, unit diagonal, diagonal blocks differ: block 0 all-ones, block 1 identity
    c = np.zeros((4, 4), dtype=complex)
    c[:2, :2] = np.ones((2, 2))
    c[2:, 2:] = np.eye(2)
    return c


def indefinite_blocks_matrix():
    # unit diagonal, equal diagonal blocks, min eigenvalue -1
    c = np.eye(4, dtype=complex)
    c[0, 3] = c[3, 0] = 2.0
    c[1, 2] = c[2, 1] = 2.0
    return c


def test_validate_accepts_all_ones():
    out = sup.validate(np.ones((4, 4)), 2)
    assert isinstance(out, sup.DephasingSuperchannel)


def test_validate_accepts_fixture():
    sc = three_level_npt_superchannel()
    assert isinstance(sup.validate(sc.c, 3), sup.DephasingSuperchannel)


def test_validate_diagonal_violation():
    c = np.ones((4, 4), dtype=complex)
    c[1, 1] = 0.5
    out = sup.validate(c, 2)
    assert isinstance(out, sup.Violation)
    assert out.kind == sup.DIAGONAL_NOT_ONE
    assert out.indices == (0, 1)
    assert out.witness is not None
    # defect from the witness: |0.5 - 1| / d
    assert abs(out.defect - 0.25) < 1e-12


def test_validate_blocks_violation():
    out = sup.validate(unequal_blocks_matrix(), 2)
    assert isinstance(out, sup.Violation)
    assert out.kind == sup.BLOCKS_UNEQUAL
    assert out.indices == (0, 1, 0, 1)
    # witness image off-diagonal defect: block difference over d^2
    assert abs(out.defect - 0.25) < 1e-12


def test_validate_psd_violation():
    out = sup.validate(indefinite_blocks_matrix(), 2)
    assert isinstance(out, sup.Violation)
    assert out.kind == sup.NOT_PSD
    assert out.defect < -0.5


def test_superchannel_raises_with_violation():
    with pytest.raises(sup.InvalidCorrelationError) as err:
        sup.superchannel(unequal_blocks_matrix(), 2)
    assert err.value.violation.kind == sup.BLOCKS_UNEQUAL


def violating_matrix(d, kind):
    # all-ones (a valid superchannel) with one entry moved off it: a diagonal
    # entry, or an off-diagonal entry inside diagonal block 1
    c = np.ones((d * d, d * d), dtype=complex)
    if kind == sup.DIAGONAL_NOT_ONE:
        c[1, 1] = 0.5
    else:
        c[d, d + 1] = c[d + 1, d] = 0.5
    return c


@pytest.mark.parametrize("kind", [sup.DIAGONAL_NOT_ONE, sup.BLOCKS_UNEQUAL])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_witness_breaks_trace_preservation(d, kind):
    c = violating_matrix(d, kind)
    out = sup.validate(c, d)
    assert isinstance(out, sup.Violation) and out.kind == kind
    chn.check_channel(out.witness)
    image = out.witness.jam * c
    deviation = np.abs(partial_trace(image, (d, d), 1) - np.eye(d) / d).max()
    assert out.defect > 0
    assert abs(deviation - out.defect) <= 1e-15


def test_apply_all_ones_is_identity():
    sc = sup.identity_superchannel(2)
    ch = chn.random_channel(Rng(50), 2, 2)
    out = sup.apply(sc, ch)
    assert np.abs(out.jam - ch.jam).max() < 1e-14


def test_apply_sign_flip_sends_hadamard_to_minus():
    sc = qubit_sign_flip_superchannel()
    had = hadamard_channel()
    out = sup.apply(sc, had)
    assert np.abs(chn.apply(out, KET0) - MINUS).max() < 1e-12


def test_apply_leaves_classical_channels_alone():
    rng = Rng(51)
    for trial in range(10):
        d = 2 + trial % 2
        sc = sup.sample(rng.derive(trial), d)
        raw = rng.derive(100 + trial).uniform(size=(d, d)) + 1e-3
        t = raw / raw.sum(axis=0, keepdims=True)
        ch = chn.classical_channel(t)
        out = sup.apply(sc, ch)
        assert np.abs(out.jam - ch.jam).max() < 1e-12


def test_apply_preserves_transitions_and_cptp():
    rng = Rng(52)
    for trial in range(20):
        d = 2 + trial % 3
        sc = sup.sample(rng.derive(trial), d)
        ch = chn.random_channel(rng.derive(500 + trial), d, 1 + trial % d)
        out = sup.apply(sc, ch)
        assert np.abs(chn.transition_matrix(out) - chn.transition_matrix(ch)).max() < 1e-12
        chn.check_channel(out)


def test_apply_dim_mismatch():
    with pytest.raises(ValueError):
        sup.apply(sup.identity_superchannel(2), chn.identity_channel(3))


def test_superchannels_compose_by_schur():
    rng = Rng(53)
    for trial in range(10):
        d = 2 + trial % 2
        s1 = sup.sample(rng.derive(trial), d)
        s2 = sup.sample(rng.derive(100 + trial), d)
        ch = chn.random_channel(rng.derive(500 + trial), d, 2)
        lhs = sup.apply(s2, sup.apply(s1, ch))
        combined = sup.superchannel(s1.c * s2.c, d)
        rhs = sup.apply(combined, ch)
        assert np.abs(lhs.jam - rhs.jam).max() < 1e-12


def test_super_jamiolkowski_all_ones_rank_one():
    sc = sup.identity_superchannel(2)
    sj = sup.super_jamiolkowski(sc)
    v = np.zeros(16, dtype=complex)
    for a in range(4):
        v[a * 4 + a] = 1.0
    assert np.abs(sj - np.outer(v, v.conj()) / 4).max() < 1e-14


def test_super_jamiolkowski_diagonal_entries():
    rng = Rng(54)
    for trial in range(5):
        d = 2 + trial % 2
        sc = sup.sample(rng.derive(trial), d)
        sj = sup.super_jamiolkowski(sc)
        d2 = d * d
        diag = np.diag(sj).reshape(d2, d2)
        assert np.abs(np.diag(diag) - 1.0 / d2).max() < 1e-12
        off = diag - np.diag(np.diag(diag))
        assert np.abs(off).max() < 1e-14
        assert np.linalg.eigvalsh(sj).min() > -1e-10


def test_super_jamiolkowski_dual_path():
    rng = Rng(55)
    for trial in range(10):
        d = 2 + trial % 3
        sc = sup.sample(rng.derive(trial), d)
        ch = chn.random_channel(rng.derive(500 + trial), d, 2)
        direct = sup.apply(sc, ch)
        via_sj = sup.apply_via_super_jam(sc, ch)
        assert np.abs(direct.jam - via_sj.jam).max() < 1e-12
        chn.check_channel(via_sj)


def test_realize_all_ones():
    real = sup.realize(sup.identity_superchannel(2))
    for v in real.vs:
        assert np.abs(v - np.eye(4)).max() < 1e-9
    rebuilt = sup.from_unitaries(real.us, real.vs)
    assert np.abs(rebuilt.c - 1.0).max() < 1e-9


def test_realize_roundtrip_random():
    rng = Rng(56)
    for trial in range(10):
        d = 2 + trial % 2
        sc = sup.sample(rng.derive(trial), d)
        real = sup.realize(sc)
        for u in real.us + real.vs:
            n = u.shape[0]
            assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-10
        rebuilt = sup.from_unitaries(real.us, real.vs)
        assert np.abs(rebuilt.c - sc.c).max() < 1e-9


def test_realize_roundtrip_product_form():
    rng = Rng(57)
    c1 = chn.random_dephasing(rng.derive(0), 2)
    c2 = chn.random_dephasing(rng.derive(1), 2)
    sc = sup.pre_post(c1, c2)
    real = sup.realize(sc)
    rebuilt = sup.from_unitaries(real.us, real.vs)
    assert np.abs(rebuilt.c - sc.c).max() < 1e-9


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("case", ["identity", "pre_post_ones"])
def test_realize_rank_deficient(d, case):
    # rank-1 and low-rank C: the Gram vectors must carry no sqrt(roundoff)
    # components, or the pivoted completion normalizes noise into the basis
    if case == "identity":
        sc = sup.identity_superchannel(d)
    else:
        sc = sup.pre_post(chn.dephasing_c(np.ones((d, d))), chn.random_dephasing(Rng(58), d))
    real = sup.realize(sc)
    m = d * d
    for w in real.us + real.vs:
        assert np.abs(w.conj().T @ w - np.eye(m)).max() < 1e-10
    rebuilt = sup.from_unitaries(real.us, real.vs)
    assert np.abs(rebuilt.c - sc.c).max() < 1e-9
    if case == "identity":
        for v in real.vs:
            assert np.abs(v - np.eye(m)).max() < 1e-12


def test_realize_roundtrip_fixture():
    sc = three_level_npt_superchannel()
    real = sup.realize(sc)
    rebuilt = sup.from_unitaries(real.us, real.vs)
    assert np.abs(rebuilt.c - sc.c).max() < 1e-9


def test_from_unitaries_identity_gives_all_ones():
    us = [np.eye(4)] * 2
    vs = [np.eye(4)] * 2
    sc = sup.from_unitaries(us, vs)
    assert np.abs(sc.c - 1.0).max() < 1e-12


def test_from_unitaries_phase_family():
    thetas = [0.0, 1.1]
    us = [np.eye(4, dtype=complex)] * 2
    vs = [np.exp(1j * th) * np.eye(4) for th in thetas]
    sc = sup.from_unitaries(us, vs)
    for i in range(2):
        for k in range(2):
            for j in range(2):
                for l in range(2):
                    expect = np.exp(1j * (thetas[i] - thetas[j]))
                    assert abs(sc.c[i * 2 + k, j * 2 + l] - expect) < 1e-12
    s = np.linalg.svd(sc.c, compute_uv=False)
    assert s[1] < 1e-12


def test_from_unitaries_rejects_non_unitary():
    bad = [np.eye(4) * 2] * 2
    with pytest.raises(ValueError):
        sup.from_unitaries(bad, [np.eye(4)] * 2)


def test_from_memory_roundtrip_and_rejects():
    # unitaries V_i with W_i = V_i S exist iff W_i^dag W_i = S^dag S
    sc = sup.sample(Rng(59), 3)
    real = sup.realize(sc)
    states, images = real.memory_states, list(real.images)
    assert np.abs(sup.from_memory(states, images).c - sc.c).max() < 1e-9
    for bad in ([2 * states, images], [states, images[:1]], [states, [images[0], 1.01 * images[1]]],
                [states, [images[0], images[1][:, [1, 0, 2]]]],
                [states, [images[0][:, :2], np.hstack([images[0][:, 2:], images[1]])]]):
        with pytest.raises(ValueError):
            sup.from_memory(*bad)


def test_sample_valid_and_deterministic():
    for seed in range(20):
        sc1 = sup.sample(Rng(seed), 2)
        sc2 = sup.sample(Rng(seed), 2)
        assert np.array_equal(sc1.c, sc2.c)
        assert isinstance(sup.validate(sc1.c, 2), sup.DephasingSuperchannel)


def test_qubit_samples_are_ppt():
    rng = Rng(58)
    for trial in range(100):
        sc = sup.sample(rng.derive(trial), 2)
        pt = partial_transpose(sc.c, (2, 2), 2)
        assert np.linalg.eigvalsh(pt).min() >= -1e-9
        # spectra of C and C^T2 agree as multisets for d=2
        a = np.sort(np.linalg.eigvalsh(sc.c))
        b = np.sort(np.linalg.eigvalsh(pt))
        assert np.abs(a - b).max() < 1e-10


def test_memory_class_product():
    rng = Rng(59)
    c1 = chn.random_dephasing(rng.derive(0), 2)
    c2 = chn.random_dephasing(rng.derive(1), 2)
    mc = sup.memory_class(sup.pre_post(c1, c2))
    assert mc.label == "PRODUCT"
    assert mc.product_residual < 1e-10


def test_memory_class_qubit_never_npt():
    rng = Rng(60)
    for trial in range(50):
        mc = sup.memory_class(sup.sample(rng.derive(trial), 2))
        assert mc.label in ("PRODUCT", "PPT")
        assert mc.ppt_min_eig >= -1e-9


def test_memory_class_fixture_npt():
    mc = sup.memory_class(three_level_npt_superchannel())
    assert mc.label == "NPT"
    assert abs(mc.ppt_min_eig - (1.0 - np.sqrt(2.0))) < 1e-10


def test_fixture_partial_transpose_spectrum():
    sc = three_level_npt_superchannel()
    assert np.linalg.eigvalsh(sc.c).min() > -1e-10
    pt = partial_transpose(sc.c, (3, 3), 2)
    assert abs(np.linalg.eigvalsh(pt).min() - (1.0 - np.sqrt(2.0))) < 1e-10


def test_sign_flip_fixture_is_product():
    mc = sup.memory_class(qubit_sign_flip_superchannel())
    assert mc.label == "PRODUCT"


def test_pre_post_limits():
    ones = chn.dephasing_c(np.ones((2, 2)))
    eye = chn.dephasing_c(np.eye(2))
    sc = sup.pre_post(ones, ones)
    assert np.abs(sc.c - 1.0).max() < 1e-14
    sc2 = sup.pre_post(ones, eye)
    assert np.abs(sc2.c - np.kron(np.eye(2), np.ones((2, 2)))).max() < 1e-14


def test_pre_post_matches_composition():
    rng = Rng(61)
    for trial in range(10):
        d = 2 + trial % 3
        c1 = chn.random_dephasing(rng.derive(trial), d)
        c2 = chn.random_dephasing(rng.derive(100 + trial), d)
        ch = chn.random_channel(rng.derive(500 + trial), d, 2)
        sc = sup.pre_post(c1, c2)
        sup.superchannel(sc.c, d)
        lhs = sup.apply(sc, ch)
        rhs = chn.compose(chn.dephasing_channel(c2), chn.compose(ch, chn.dephasing_channel(c1)))
        assert np.abs(lhs.jam - rhs.jam).max() < 1e-12


def test_tilde_c_all_ones():
    dc = sup.tilde_c(sup.identity_superchannel(3))
    assert np.abs(dc.c - 1.0).max() < 1e-14


def test_tilde_c_fixture_is_identity():
    dc = sup.tilde_c(three_level_npt_superchannel())
    assert np.abs(dc.c - np.eye(3)).max() < 1e-12


def test_tilde_c_random_is_correlation():
    rng = Rng(62)
    for trial in range(10):
        d = 2 + trial % 3
        dc = sup.tilde_c(sup.sample(rng.derive(trial), d))
        assert np.abs(np.diag(dc.c) - 1.0).max() < 1e-10
        assert np.linalg.eigvalsh(dc.c).min() > -1e-9


def test_act_on_dephasing_identity_superchannel():
    rng = Rng(63)
    dc = chn.random_dephasing(rng, 2)
    out = sup.act_on_dephasing(sup.identity_superchannel(2), dc)
    assert np.abs(out.c - dc.c).max() < 1e-12


def test_act_on_dephasing_fixed_point():
    rng = Rng(64)
    sc = sup.sample(rng, 3)
    out = sup.act_on_dephasing(sc, chn.dephasing_c(np.eye(3)))
    assert np.abs(out.c - np.eye(3)).max() < 1e-12


def test_act_on_dephasing_dual_path_and_contraction():
    rng = Rng(65)
    for trial in range(10):
        d = 2 + trial % 3
        sc = sup.sample(rng.derive(trial), d)
        dc = chn.random_dephasing(rng.derive(100 + trial), d)
        out = sup.act_on_dephasing(sc, dc)
        chn.dephasing_c(out.c)
        lhs = sup.apply(sc, chn.dephasing_channel(dc))
        rhs = chn.dephasing_channel(out)
        assert np.abs(lhs.jam - rhs.jam).max() < 1e-12
        assert (np.abs(out.c) <= np.abs(dc.c) + 1e-12).all()


def test_realization_action_matches_schur():
    # the rebuilt superchannel acts identically to the original on states
    rng = Rng(66)
    d = 2
    sc = sup.sample(rng, d)
    real = sup.realize(sc)
    rebuilt = sup.from_unitaries(real.us, real.vs)
    ch = chn.random_channel(rng.derive(7), d, 2)
    rho = random_state(rng.derive(8), d)
    expect = chn.apply(sup.apply(sc, ch), rho)
    out = chn.apply(sup.apply(rebuilt, ch), rho)
    assert np.abs(out - expect).max() < 1e-9
