import numpy as np
import pytest

from steercert.qlin import (
    Povm,
    basis_povm,
    dagger,
    eigh,
    eigvalsh,
    hermitian_basis,
    hermitian_inner,
    is_hermitian,
    is_psd,
    kron,
    matrix_from_json,
    matrix_to_json,
    helstrom_pair,
    min_eig,
    normalised,
    not_psd,
    partial_trace,
    random_unitary,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PHI_PLUS = 0.5 * np.array(
    [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex
)


def random_herm(d, rng):
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (h + dagger(h)) / 2


def random_density(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def kron_by_loop(a, b):
    # independent element-by-element expansion of the definition
    da, db = a.shape[0], b.shape[0]
    out = np.zeros((da * db, da * db), dtype=complex)
    for i1 in range(da):
        for i2 in range(da):
            for j1 in range(db):
                for j2 in range(db):
                    out[i1 * db + j1, i2 * db + j2] = a[i1, i2] * b[j1, j2]
    return out


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_basis_ordering():
    got = kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert np.array_equal(got, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_kron_pauli_xz():
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = 1
    expected[1, 3] = -1
    expected[2, 0] = 1
    expected[3, 1] = -1
    assert np.max(np.abs(kron(X, Z) - expected)) == 0.0
    assert np.max(np.abs(kron(X, Z) - kron_by_loop(X, Z))) == 0.0


def test_kron_associative_bilinear():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a, b, c = (random_herm(2, rng) for _ in range(3))
        assert np.max(np.abs(kron(kron(a, b), c) - kron(a, kron(b, c)))) <= 1e-12
        s, t = rng.standard_normal(2)
        lhs = kron(s * a + t * b, c)
        rhs = s * kron(a, c) + t * kron(b, c)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    rho_a = random_density(2, rng)
    rho_b = random_density(3, rng)
    got = partial_trace(kron(rho_a, rho_b), (2, 3), keep="B")
    assert np.max(np.abs(got - rho_b)) <= 1e-12
    got_a = partial_trace(kron(rho_a, 0.7 * rho_b), (2, 3), keep="A")
    assert np.max(np.abs(got_a - 0.7 * rho_a)) <= 1e-12


def test_partial_trace_maximally_entangled():
    got = partial_trace(PHI_PLUS, (2, 2), keep="B")
    assert np.max(np.abs(got - np.eye(2) / 2)) <= 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    m = g @ dagger(g)
    reduced = partial_trace(m, (2, 3), keep="A")
    assert abs(np.trace(reduced) - np.trace(m)) <= 1e-10


def test_partial_trace_three_subsystems():
    rng = np.random.default_rng(13)
    a, b, e = (random_density(2, rng) for _ in range(3))
    m = kron(a, b, e)
    got = partial_trace(m, (2, 2, 2), keep=(1,))
    assert np.max(np.abs(got - b)) <= 1e-12
    got_ab = partial_trace(m, (2, 2, 2), keep=(0, 1))
    assert np.max(np.abs(got_ab - kron(a, b))) <= 1e-12


def test_partial_trace_of_a_stack_traces_each_matrix():
    rng = np.random.default_rng(14)
    stack = np.stack([random_density(6, rng) for _ in range(5)]).reshape(5, 1, 6, 6)
    for keep in ("A", "B"):
        got = partial_trace(stack, (2, 3), keep=keep)
        want = np.stack([partial_trace(m, (2, 3), keep=keep) for m in stack[:, 0]])
        assert got.shape == want.shape[:1] + (1,) + want.shape[1:]
        assert np.array_equal(got[:, 0], want)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(5), (2, 2), keep="A")


def test_min_eig_examples():
    assert min_eig(np.eye(2)) == pytest.approx(1.0, abs=1e-10)
    assert min_eig(np.diag([3.0, -2.0])) == pytest.approx(-2.0, abs=1e-10)
    assert min_eig(PHI_PLUS - 0.3 * np.eye(4)) == pytest.approx(-0.3, abs=1e-10)


def test_min_eig_rejects_nonhermitian():
    with pytest.raises(ValueError):
        min_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_min_eig_shift_invariance():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = random_herm(4, rng)
        c = float(rng.standard_normal())
        assert min_eig(a + c * np.eye(4)) == pytest.approx(min_eig(a) + c, abs=1e-10)


def test_hermitian_psd_predicates():
    assert is_hermitian(X) and is_hermitian(Y)
    assert not is_hermitian(X + 1e-6 * 1j * np.eye(2))
    assert is_psd(PHI_PLUS)
    assert not is_psd(Z)


def test_hermitian_basis_orthonormal():
    for d in (2, 3):
        basis = hermitian_basis(d)
        assert basis.shape == (d * d, d, d)
        for r, e in enumerate(basis):
            assert is_hermitian(e)
            for s, f in enumerate(basis):
                assert hermitian_inner(e, f) == pytest.approx(1.0 if r == s else 0.0, abs=1e-12)


def test_povm_validation():
    p = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert p.dim == 2 and p.n_outcomes == 2
    with pytest.raises(ValueError):
        Povm([np.diag([1.0, 0.0]), np.diag([0.0, 0.9])])
    with pytest.raises(ValueError):
        Povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])


def _is_psd_one_by_one(a, tol):
    """The reference PSD test: a Hermiticity check, then one eigvalsh of the Hermitian part."""
    if not np.max(np.abs(a - dagger(a))) <= max(tol, 1e-12):  # NaN is not Hermitian
        return False
    return float(np.linalg.eigvalsh(0.5 * (a + dagger(a)))[0]) >= -tol


def test_stacked_psd_test_matches_the_matrix_by_matrix_one():
    rng = np.random.default_rng(35)
    stack = np.stack([random_herm(3, rng) for _ in range(12)])
    g = rng.standard_normal((6, 3, 2)) + 1j * rng.standard_normal((6, 3, 2))
    stack[:6] = g @ dagger(g)  # PSD of rank 2
    stack[2] -= 5e-10 * np.eye(3)  # lambda_min -5e-10: PSD within 1e-8 only
    stack[3, 0, 2] += 1e-11  # Hermitian within both tolerances
    stack[4, 0, 2] += 1e-9  # Hermitian within 1e-8 only
    stack[7, 0, 0] = np.nan
    for tol in (1e-10, 1e-8):
        want = [not _is_psd_one_by_one(a, tol) for a in stack]
        assert list(not_psd(stack, tol)) == want
        assert list(not_psd(stack.reshape(3, 4, 3, 3), tol).ravel()) == want
        assert [not is_psd(a, tol) for a in stack] == want
    assert list(not_psd(stack, 1e-10)[:6]) == [False, False, True, False, True, False]


def test_povm_errors_name_the_first_failing_element():
    half = np.diag([0.5, 0.5])
    cases = [
        ([half, np.diag([0.5, 0.7]), np.diag([0.0, -0.2])], r"element 2 is not PSD within 1e-10"),
        ([np.array([[0.5, 0.1], [0.0, 0.5]]), half], r"element 0 is not PSD within 1e-10"),
        ([np.diag([1.0, 1.0 + 2e-10]), np.diag([0.0, -2e-10])], r"element 1 is not PSD within 1e-10"),
        ([half, np.full((2, 2), np.nan)], r"element 1 is not PSD within 1e-10"),
        ([half, np.eye(3)], r"element 1 has shape \(3, 3\), expected \(2, 2\)"),
        ([half, np.diag([0.5, 0.4])], r"elements sum to identity only within 1\.000e-01"),
    ]
    for elements, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            Povm(elements)
    with pytest.raises(ValueError, match=r"^element 1 is not PSD within 0\.3$"):
        Povm([np.diag([1.5, 0.6]), np.diag([-0.5, 0.0]), np.diag([0.0, 0.4])], tol=0.3)


def test_povm_holds_one_read_only_stack():
    p = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert p.elements.shape == (2, 2, 2) and p.elements.dtype == complex
    assert not p.elements.flags.writeable and p.elements.flags.c_contiguous
    assert np.array_equal(Povm(p.elements).elements, p.elements)
    assert np.array_equal(p[1], np.diag([0.0, 1.0]))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_basis_povm_matches_one_outer_product_per_column(d):
    rng = np.random.default_rng(40 + d)
    for _ in range(50):
        u = random_unitary(d, rng)
        want = np.stack([np.outer(u[:, a], u[:, a].conj()) for a in range(d)])
        assert np.array_equal(basis_povm(u).elements, want)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_normalised_matches_the_per_element_form(d):
    rng = np.random.default_rng(50 + d)
    for n in (2, 3, 4):
        g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
        stack = g @ dagger(g)
        # the reference: one sum, one inverse square root, one product per element
        vals, vecs = np.linalg.eigh(sum(list(stack)))
        vals = np.maximum(vals, 1e-300)
        inv_sqrt = (vecs * (vals**-0.5)) @ vecs.conj().T
        want = np.stack([inv_sqrt @ e @ inv_sqrt for e in stack])
        got = normalised(stack)
        assert np.array_equal(got, want)
        assert np.max(np.abs(got.sum(axis=0) - np.eye(d))) <= 1e-10


def test_helstrom_pair_projects_onto_the_negative_eigenspace():
    rng = np.random.default_rng(37)
    for d in (2, 3, 4):
        w0, w1 = random_herm(d, rng), random_herm(d, rng)
        m = helstrom_pair(w0 - w1)
        vals, vecs = np.linalg.eigh(w0 - w1)
        neg = vecs[:, vals < 0.0]
        assert np.array_equal(m[0], neg @ dagger(neg))
        assert np.array_equal(m[1], np.eye(d, dtype=complex) - m[0])
        value = hermitian_inner(w0, m[0]) + hermitian_inner(w1, m[1])
        assert value == pytest.approx(np.trace(w1).real + vals[vals < 0].sum(), abs=1e-12)


def test_basis_povm_from_unitary():
    rng = np.random.default_rng(17)
    u = random_unitary(3, rng)
    p = basis_povm(u)
    assert p.n_outcomes == 3
    total = sum(p.elements)
    assert np.max(np.abs(total - np.eye(3))) <= 1e-12


def test_random_unitary_is_unitary_and_seeded():
    u1 = random_unitary(4, np.random.default_rng(42))
    u2 = random_unitary(4, np.random.default_rng(42))
    assert np.array_equal(u1, u2)
    assert np.max(np.abs(u1 @ dagger(u1) - np.eye(4))) <= 1e-12


def test_matrix_json_round_trip():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    encoded = matrix_to_json(a)
    assert encoded[0][1] == [pytest.approx(a[0, 1].real), pytest.approx(a[0, 1].imag)]
    back = matrix_from_json(encoded)
    assert np.array_equal(back, a)


@pytest.mark.filterwarnings("ignore:invalid value encountered")  # the gufunc's, before the LinAlgError
def test_eigh_and_eigvalsh_match_numpy_linalg_bit_for_bit():
    # the gufuncs numpy.linalg.eigh and eigvalsh call, without their wrappers; a numpy that moves them fails here
    rng = np.random.default_rng(36)
    for stack in (np.stack([random_herm(d, rng) for _ in range(7)]) for d in (1, 2, 3, 4)):
        for a in (stack, stack[0], stack.real.copy(), stack.mT):  # complex, one matrix, real, strided
            got, want = eigh(a), np.linalg.eigh(a)
            assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))
            assert eigvalsh(a).dtype == want[0].dtype and np.array_equal(eigvalsh(a), np.linalg.eigvalsh(a))
    bad = random_herm(3, rng)
    bad[1, 1] = np.nan
    for f in (eigh, eigvalsh, np.linalg.eigh):
        with pytest.raises(np.linalg.LinAlgError):
            f(bad)
