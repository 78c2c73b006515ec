"""Sum-factorized assembly against the batch pairing it replaces.

`solver.assemble` forms K and G from the symbols of its operators (run on
`polyfield.unit_symbols()`) and the 1D moments of the basis factors. The
reference below is the batch assembly of earlier versions: every operator
on the whole basis stack as one batch, each term paired by
`polyfield.batch_gram`. Only the summation order differs, so K and G must
agree within 1e-13 relative. The stack a basis builds from its factors
must be bit-identical to the one built from its scalars, and a curvature
route broken in the operator code must still fail the entrywise
curl-against-axl check.
"""
import functools

import numpy as np
import pytest

from couplestress import polyfield as pf
from couplestress import solver as sv
from couplestress import tensors as tn
from couplestress.energies import Material, rotation_gradient, strain_curl
from couplestress.trig import TrigPoly

MATERIALS = [
    Material(1.0, 1.0, 1.0, 0.0, 1.0),
    Material(1.0, 0.7, 1.3, 0.4, 0.9),
    Material(2.0, -0.5, 0.6, 1.7, 1.4),  # lam < 0 with 3 lam + 2 mu > 0
]
BASES = [("bubble", o) for o in (1, 2, 3, 4)] + [("sine", o) for o in (1, 2, 3)]


def make_basis(kind, order):
    return (sv.bubble_basis if kind == "bubble" else sv.sine_basis)(order)


@functools.cache
def batch_term_grams(kind, order, formulation):
    """The six term Grams of the batch assembly: operators on the basis stack as one batch."""
    U = make_basis(kind, order).fields.batch()
    J = pf.jac(U)
    k_curl = strain_curl(U)
    k = k_curl if formulation == "curl" else rotation_gradient(U)
    return [pf.batch_gram(t) for t in (tn.sym(J), tn.trace(J), tn.devsym(k), tn.skw(k), J, k_curl)]


def batch_assembly(kind, order, mat, formulation):
    sym_J, tr_J, devsym_k, skw_k, gram_J, gram_k = batch_term_grams(kind, order, formulation)
    s = mat.curvature_scale
    K = (2.0 * mat.mu * sym_J + mat.lam * tr_J
         + s * (2.0 * mat.alpha1 * devsym_k + 2.0 * mat.alpha2 * skw_k))
    G = gram_J + gram_k
    return 0.5 * (K + K.T), 0.5 * (G + G.T)


def relative_gap(A, B):
    return float(np.max(np.abs(A - B)) / np.max(np.abs(B)))


@pytest.mark.parametrize("formulation", ["curl", "axl"])
@pytest.mark.parametrize("mat", MATERIALS, ids=["default", "coupled", "negative-lam"])
@pytest.mark.parametrize("kind,order", BASES, ids=[f"{k}-o{o}" for k, o in BASES])
def test_factored_assembly_matches_the_batch_assembly(kind, order, mat, formulation):
    asm = sv.assemble(make_basis(kind, order), mat, formulation)
    K, G = batch_assembly(kind, order, mat, formulation)
    assert relative_gap(asm.K, K) <= 1e-13
    assert relative_gap(asm.G, G) <= 1e-13


def component_stack(scalars):
    """The stack of the fields s e_d, each scalar's cube in its component slot."""
    S = pf.FieldStack.of(scalars)
    X = np.zeros((len(S), 3, 3) + S.cubes.shape[1:])
    X[:, range(3), range(3)] = S.cubes[:, None]
    return pf.FieldStack(X.reshape((-1, 3) + X.shape[3:]), S.cap, S.family)


def sine_scalars(order):
    freqs = [(a, b, c) for a in range(1, order + 1) for b in range(1, order + 1)
             for c in range(1, order + 1)]
    return [TrigPoly.sine_mode(f) for f in freqs]


@pytest.mark.parametrize("kind,order", BASES, ids=[f"{k}-o{o}" for k, o in BASES])
def test_the_factor_stack_is_bit_identical_to_the_scalar_stack(kind, order):
    basis = make_basis(kind, order)
    scalars = sv.bubble_scalars(order) if kind == "bubble" else sine_scalars(order)
    ref = component_stack(scalars)
    assert basis.fields.family is ref.family is basis.family
    assert basis.fields.cap == ref.cap
    assert basis.fields.cubes.shape == ref.cubes.shape
    assert basis.fields.cubes.tobytes() == ref.cubes.tobytes()
    assert basis.order == order and len(basis) == 3 * order**3


def test_the_symbol_family_refuses_a_third_derivative():
    U = pf.unit_symbols()
    second = U[0].diff(0).diff(0)
    assert second.coef[0, 2, 0, 0] == 1.0
    with pytest.raises(ValueError, match="layout"):
        second.diff(0)
    mixed = U[1].diff(0).diff(1).diff(2).diff(2)  # at most two per axis
    assert mixed.coef[1, 1, 1, 2] == 1.0 and np.count_nonzero(mixed.coef) == 1
    with pytest.raises(ValueError, match="layout"):
        mixed.diff(2)


def stiffness_gap(basis, mat):
    K_curl = sv.assemble(basis, mat, "curl").K
    K_axl = sv.assemble(basis, mat, "axl").K
    return float(np.max(np.abs(K_curl - K_axl))) / max(1.0, float(np.max(np.abs(K_curl))))


def test_a_broken_curvature_route_fails_the_entrywise_check(monkeypatch):
    basis, mat = sv.bubble_basis(2), MATERIALS[0]
    assert stiffness_gap(basis, mat) <= 1e-12
    # jac(axl(jac u)): the rotation gradient without its skw
    monkeypatch.setattr(sv, "rotation_gradient", lambda u: pf.jac(tn.axl(pf.jac(u))))
    assert stiffness_gap(basis, mat) >= 1e-3
    monkeypatch.undo()
    assert stiffness_gap(basis, mat) <= 1e-12


def test_assembly_and_loads_pair_nothing_on_the_basis_stack(monkeypatch):
    basis, mat = sv.bubble_basis(3), MATERIALS[1]
    grams, batched = [], []
    dense_gram, batch = pf.dense_gram, pf.FieldStack.batch

    def counting_dense_gram(*args, **kwargs):
        grams.append(args[0].shape)
        return dense_gram(*args, **kwargs)

    def counting_batch(stack, D=None):
        batched.append(stack)
        return batch(stack, D)

    monkeypatch.setattr(pf, "dense_gram", counting_dense_gram)
    monkeypatch.setattr(pf.FieldStack, "batch", counting_batch)
    sv.assemble(basis, mat, "curl")
    sv.assemble(basis, mat, "axl")
    assert grams == [] and batched == []
    u_star = sv.displacement(basis, np.random.default_rng(2).uniform(-1.0, 1.0, len(basis)))
    sv.manufactured_load(basis, u_star, mat)
    sv.load_vector(basis, u_star)
    assert grams == []
    assert batched and all(s is not basis.fields for s in batched)  # u_star and the load only


def test_a_load_of_another_family_is_refused():
    f = pf.as_vec([TrigPoly.sine_mode((1, 1, 1))] * 3)
    with pytest.raises(TypeError, match="one scalar family"):
        sv.load_vector(sv.bubble_basis(1), f)
