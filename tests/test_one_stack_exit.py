"""Batched results become coefficient stacks through one function.

`polyfield._stacks` is the one way from DenseBatch fields back to cubes:
`batch_gram`, `symbol_grams`, `solver.manufactured_load` (its f and each
face's g) and `micromorphic.companion_basis` call it, and
`solver._load_pairing` pairs the stacks it is given, so `load_vector`
passes the cubes of its load without batching them. The references below
restate the code each exit replaced, which stacked the batches' `coef` by
hand, and every result must equal its reference bit for bit. A mix of
families raises the same TypeError as before, and fields on different
layouts are padded to the largest.
"""
import numpy as np
import pytest
import scipy.linalg

from couplestress import cli
from couplestress import micromorphic as mm
from couplestress import polyfield as pf
from couplestress import solver as sv
from couplestress import stresses as st
from couplestress import tensors as tn
from couplestress import tractions as tr
from couplestress.energies import Material, strain_curl
from couplestress.trig import TrigPoly

MAT = Material(1.0, 0.7, 1.3, 0.4, 0.9)


def same(a, b):
    """a and b hold the same bytes (arrays) or the same keys and coefficient bytes (fields)."""
    if isinstance(a, np.ndarray) and a.dtype == object:
        return a.shape == b.shape and all(same(p, q) for p, q in zip(a.flat, b.flat))
    if isinstance(a, pf.ScalarField):
        vals = [np.array(list(p.coef.values()), dtype=float).tobytes() for p in (a, b)]
        return type(a) is type(b) and list(a.coef) == list(b.coef) and vals[0] == vals[1]
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture
def exits(monkeypatch):
    """The calls of `pf._stacks`, by the number of fields each got."""
    calls = []
    stacks = pf._stacks

    def counting(*fields):
        calls.append(len(fields))
        return stacks(*fields)

    monkeypatch.setattr(pf, "_stacks", counting)
    return calls


# --- references: the hand-written stacking of each exit, as it was -----------


def ref_batch_gram(rows, other=None):
    square = other is None and np.shape(rows) == (3, 3)
    rows = list(np.ravel(rows))
    other = None if other is None else list(np.ravel(other))
    batches = rows + (other or [])
    family = batches[0].family
    if any(p.family is not family for p in batches):
        raise TypeError("dense pairing needs one scalar family")
    D = max(p.coef.shape[-1] for p in batches)

    def stack(row):
        return np.stack([pf._padded(p.coef, D) for p in row], axis=1)

    X, Y = stack(rows), None if other is None else stack(other)
    if square:
        X = X.reshape((len(X), 3, 3) + X.shape[2:])
    return pf.dense_gram(X, family.dense_moments(D), Y)


def ref_symbol_grams(terms, weights, M):
    S = pf.SYMBOL_SIZE
    Ws = [np.stack([p.coef for p in np.ravel(t)], axis=1).reshape(3, -1, S**3) for t in terms]
    C = np.stack([np.tensordot(W, W, (1, 1)) for W in Ws])
    weights = np.asarray(weights, dtype=float)
    _, e = np.frexp(np.max(np.abs(weights), axis=1))
    C = np.tensordot(np.ldexp(weights, -e[:, None]), C, (1, 0))
    C = C.reshape((len(weights), 3) + (S,) * 3 + (3,) + (S,) * 3)
    T = np.tensordot(C, M, ([2, 6], [0, 1]))
    T = np.tensordot(T, M, ([2, 5], [0, 1]))
    T = np.tensordot(T, M, ([2, 4], [0, 1]))
    N = 3 * M.shape[-1] ** 3
    T = T.transpose(0, 3, 5, 7, 1, 4, 6, 8, 2).reshape(len(weights), N, N)
    return np.ldexp(T, e[:, None, None])


def ref_load_pairing(basis, F, faces=()):
    family = basis.family
    batches = [*F, *(p for _, G in faces for p in G)]
    if any(p.family is not family for p in batches):
        raise TypeError("dense pairing needs one scalar family")
    D = max([basis.factors.shape[-1]] + [p.coef.shape[-1] for p in batches])
    Phi = np.zeros((basis.order, D))
    Phi[:, :basis.factors.shape[-1]] = basis.factors
    A = Phi @ family.dense_moments(D)

    def pair(X, rows):
        X = np.stack([p.coef[0] for p in X])
        d = X.shape[-1]
        A0, A1, A2 = (r[:, :d] for r in rows)
        T = A0 @ (A1 @ (X @ A2.T)).reshape(3, d, -1)
        return T.reshape(3, -1).T.ravel()

    b = pair(F, [A] * 3)
    for face, G in faces:
        V = family.dense_values(D, face.value)
        rows = [A] * 3
        rows[face.axis] = np.outer(face.normal[face.axis] * (Phi @ family.dense_diff(D).T @ V), V)
        b += pair(G, rows)
    return b


def ref_load_vector(basis, f):
    return ref_load_pairing(basis, pf.batch_fields([f]))


@np.errstate(over="ignore", invalid="ignore")
def ref_manufactured_load(basis, u_star, mat):
    U = pf.FieldStack.of([u_star])
    state = st.assemble(U.batch(), mat)
    f = st.equilibrium_residual(state) * -1.0
    g = {}
    for face in tr.ALL_FACES:
        if face.axis not in g:
            g[face.axis] = tr.curl_double_force(state, face)
    b = ref_load_pairing(basis, f, [(face, g[face.axis]) for face in tr.ALL_FACES])
    (f,) = pf.FieldStack(np.stack([p.coef for p in f], axis=1), U.cap, U.family)
    return f, b


def ref_companion_basis(model, u_basis):
    gens = mm._CLASSES[mm.companion_class(model)][4]
    U = u_basis.fields
    D = U.cubes.shape[-1]
    S = U.cubes[::3, 0]
    images = [p.coef for p in mm.constrained_companion(model, U.batch()).flat]
    shaped = S[:, None, None, None] * np.array(gens)[None, ..., None, None, None]
    X = np.concatenate([shaped.reshape((-1, 3, 3) + (D,) * 3),
                        np.stack(images, axis=1).reshape((len(U), 3, 3) + (D,) * 3)])
    gram = pf.dense_gram(X, U.family.dense_moments(D))
    vals, vecs = scipy.linalg.eigh(gram)
    keep = vals > len(vals) * np.finfo(float).eps * vals[-1]
    cols = vecs[:, keep]
    V = np.where(np.abs(cols) > 1e-14, cols * (1.0 / np.sqrt(vals[keep])), 0.0)
    return pf.linear_combinations(pf.FieldStack(X, U.cap, U.family), V)


# --- inputs -------------------------------------------------------------------


def rng_fields(seed, make, degree, n):
    rng = np.random.default_rng(seed)
    return [make(rng, degree) for _ in range(n)]


def trig_load(seed):
    cube = np.random.default_rng(seed).uniform(-1.0, 1.0, (3, 5, 5, 5))
    return pf.as_vec([TrigPoly.from_cube(c) for c in cube])


def displacement(basis, seed):
    return sv.displacement(basis, np.random.default_rng(seed).uniform(-1.0, 1.0, len(basis)))


# --- every exit goes through _stacks, bit for bit ------------------------------


def gram_cases():
    """(rows, other) pairs: folded, flattened, against another stack, padded, lone."""
    S = pf.batch_fields(rng_fields(1, pf.random_sym_mat_field, 3, 6))
    M = pf.batch_fields(rng_fields(2, pf.random_mat_field, 3, 6))
    V = pf.batch_fields(rng_fields(3, pf.random_vec_field, 2, 4))
    W = pf.batch_fields(rng_fields(4, pf.random_vec_field, 4, 5))
    return {
        "3x3 with itself, folded": (tn.sym(S), None),
        "3x3 against a flat list": (M, list(np.ravel(S))),
        "flat list of a 3x3": (list(np.ravel(M)), None),
        "vector against a vector": (V, pf.batch_fields(rng_fields(5, pf.random_vec_field, 2, 3))),
        "padded, small against large": (V, W),
        "padded, large against small": (W, V),
        "lone batch": (V[0], None),
        "lone batch against a padded one": (V[1], W[2]),
    }


@pytest.mark.parametrize("case", list(gram_cases()))
def test_batch_gram_takes_one_exit_and_keeps_every_bit(case, exits):
    rows, other = gram_cases()[case]
    want = ref_batch_gram(rows, other)
    G = pf.batch_gram(rows, other)
    assert exits == [1 if other is None else 2]
    assert same(G, want)


def test_mixed_layouts_are_padded_to_the_largest():
    V = pf.batch_fields(rng_fields(3, pf.random_vec_field, 2, 4))
    W = pf.batch_fields(rng_fields(4, pf.random_vec_field, 4, 5))
    assert V[0].coef.shape[-1] < W[0].coef.shape[-1]
    X, Y, family = pf._stacks(V, W)
    D = W[0].coef.shape[-1]
    assert family is pf.Poly3
    assert X.shape == (4, 3, D, D, D) and Y.shape == (5, 3, D, D, D)
    d = V[0].coef.shape[-1]
    assert same(np.ascontiguousarray(X[..., :d, :d, :d]),
                np.stack([p.coef for p in V], axis=1))
    assert not X[..., d:, :, :].any() and not X[..., :, d:, :].any()
    (lone, family) = pf._stacks(V[1])
    assert lone.shape == (4, d, d, d) and same(lone, V[1].coef)


def test_symbol_grams_take_one_exit_and_keep_every_bit(exits):
    basis = sv.bubble_basis(2)
    terms = sv._term_symbols(strain_curl)  # the parts of the law, then two norm terms
    n = len(terms) - 2
    weights = [list(np.linspace(0.25, 3.0, n)) + [0.0, 0.0], [0.0] * n + [1.0, 1.0]]
    M = pf.factor_moments(basis.factors, basis.family)
    G = pf.symbol_grams(terms, weights, M)
    assert exits == [len(terms)]
    assert same(G, ref_symbol_grams(terms, weights, M))


@pytest.mark.parametrize("kind, order", [("bubble", 1), ("bubble", 2), ("sine", 2)])
def test_manufactured_load_takes_one_exit_per_term_and_keeps_every_bit(kind, order, exits):
    basis = (sv.bubble_basis if kind == "bubble" else sv.sine_basis)(order)
    u_star = displacement(basis, order)
    f, b = sv.manufactured_load(basis, u_star, MAT)
    assert exits == [1] * 4  # one double force per axis, then f
    want_f, want_b = ref_manufactured_load(basis, u_star, MAT)
    assert same(f, want_f) and same(b, want_b)


@pytest.mark.parametrize("kind, f", [("bubble", cli._generic_load()), ("sine", trig_load(7))])
def test_load_vector_pairs_its_cubes_without_a_batch_and_keeps_every_bit(kind, f, exits,
                                                                          monkeypatch):
    basis = (sv.bubble_basis if kind == "bubble" else sv.sine_basis)(2)
    want = ref_load_vector(basis, f)
    batches = []
    batch = pf.FieldStack.batch
    monkeypatch.setattr(pf.FieldStack, "batch", lambda s, D=None: batches.append(s) or batch(s, D))
    b = sv.load_vector(basis, f)
    assert exits == [] and batches == []
    assert same(b, want)


@pytest.mark.parametrize("model, order", [("cosserat", 2), ("microstrain", 2), ("relaxed", 1)])
def test_companion_basis_takes_one_exit_and_keeps_every_bit(model, order, exits):
    basis = sv.bubble_basis(order)
    span = mm.companion_basis(model, basis)
    assert exits == [1]
    want = ref_companion_basis(model, basis)
    assert same(span.cubes, want.cubes) and span.cap == want.cap and span.family is want.family


# --- a mix of families -------------------------------------------------------------


def test_batch_gram_refuses_a_mix_of_families():
    V = pf.batch_fields(rng_fields(3, pf.random_vec_field, 2, 2))
    T = pf.batch_fields([trig_load(1), trig_load(2)])
    for rows, other in ((V, T), (T, V), (list(V) + list(T), None)):
        with pytest.raises(TypeError, match="^dense pairing needs one scalar family$"):
            ref_batch_gram(rows, other)
        with pytest.raises(TypeError, match="^dense pairing needs one scalar family$"):
            pf.batch_gram(rows, other)


def test_load_vector_refuses_a_trig_load_on_a_bubble_basis():
    basis = sv.bubble_basis(1)
    with pytest.raises(TypeError, match="^dense pairing needs one scalar family$"):
        ref_load_vector(basis, trig_load(3))
    with pytest.raises(TypeError, match="^dense pairing needs one scalar family$"):
        sv.load_vector(basis, trig_load(3))


def test_manufactured_load_refuses_a_trig_solution_on_a_bubble_basis():
    u_star = displacement(sv.sine_basis(1), 4)
    basis = sv.bubble_basis(1)
    with pytest.raises(TypeError, match="^dense pairing needs one scalar family$"):
        ref_manufactured_load(basis, u_star, MAT)
    with pytest.raises(TypeError, match="^dense pairing needs one scalar family$"):
        sv.manufactured_load(basis, u_star, MAT)
