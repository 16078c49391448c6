import random
from fractions import Fraction

import pytest

from lieposet import linalg
from lieposet.algebras import build_custom, build_g, build_gA, footnote_algebra
from lieposet.forms import (
    FormError,
    NotFrobeniusError,
    OneForm,
    ad_weights,
    dphi_matrix,
    functional_on_basis,
    in_kernel,
    index,
    is_binary_spectrum,
    is_contact_form,
    is_contact_form_volume,
    is_small,
    kernel,
    phi_on_basis,
    principal_element,
    spectrum,
    udo_partition,
    _dphi_rows,
)
from lieposet.linalg import ShapeError, char_poly
from lieposet.posets import Poset
from lieposet.sweep import enumerate_posets

CHAIN2 = Poset.chain(2)
CHAIN3 = Poset.chain(3)
CHAIN4 = Poset.chain(4)
FORK5 = Poset.from_covers(5, [(1, 2), (2, 3), (3, 4), (3, 5)])
# six-element block: 1 < {2,3} < 4 < {5,6}
SIX_A = Poset.from_covers(6, [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (4, 6)])

PHI_CHAIN4 = OneForm.from_support(CHAIN4, [(1, 1), (1, 4), (2, 3), (2, 4)])
PHI_FORK5 = OneForm.from_support(FORK5, [(1, 1), (1, 4), (1, 5), (2, 3), (2, 5)])
PHI_SIX_A = OneForm.from_support(SIX_A, [(1, 5), (1, 6), (2, 4), (2, 5), (3, 6)])


def assert_proportional(coords, expected):
    expected = {k: Fraction(v) for k, v in expected.items() if v}
    keys = set(coords) | set(expected)
    ratio = None
    for k in keys:
        a, b = coords.get(k, Fraction(0)), expected.get(k, Fraction(0))
        if (a == 0) != (b == 0):
            raise AssertionError(f"support mismatch at {k}: {coords} vs {expected}")
        if a:
            r = a / b
            if ratio is None:
                ratio = r
            elif r != ratio:
                raise AssertionError(f"not proportional: {coords} vs {expected}")
    assert ratio is not None and ratio != 0


def test_form_validates_support():
    with pytest.raises(FormError):
        OneForm.from_support(CHAIN2, [(2, 1)])
    with pytest.raises(FormError):
        OneForm.from_support(CHAIN2, [(1, 3)])
    f = OneForm.from_support(CHAIN2, [(1, 1), (1, 2)])
    assert f.diagonal_support == {(1, 1)} and f.strict_support == {(1, 2)}


def test_form_json_roundtrip():
    f = OneForm.from_support(CHAIN4, [(1, 1), (1, 4)], {(1, 4): Fraction(3, 2)})
    data = f.to_json()
    assert OneForm.from_json(CHAIN4, data) == f
    bare = OneForm.from_support(CHAIN4, [(2, 3)])
    assert OneForm.from_json(CHAIN4, bare.to_json()) == bare


def test_dphi_zero_for_abelian():
    alg = build_custom(3, {})
    m = dphi_matrix(alg, functional_on_basis(alg, [1, 2, 3]))
    assert m.is_zero()


def test_dphi_chain2_entry():
    gA = build_gA(CHAIN2)
    phi = OneForm.from_support(CHAIN2, [(1, 2)])
    m = dphi_matrix(gA, phi)
    # basis (E11-E22, E12): [E11-E22, E12] = 2 E12, so dφ = -2
    assert m.rows[0][1] == -2 and m.rows[1][0] == 2
    assert m.is_skew_symmetric()


def test_dphi_skew_randomized():
    rng = random.Random(0)
    for poset in (CHAIN4, FORK5, SIX_A):
        for alg in (build_g(poset), build_gA(poset)):
            pairs = sorted(poset.relations)
            support = [pq for pq in pairs if rng.random() < 0.6] or pairs[:1]
            phi = OneForm.from_support(poset, support)
            assert dphi_matrix(alg, phi).is_skew_symmetric()


def test_golden_kernel_chain4():
    gA = build_gA(CHAIN4)
    rep = kernel(gA, PHI_CHAIN4)
    assert rep.dimension == 1
    assert_proportional(
        rep.generator_coords(),
        {(1, 1): 1, (2, 2): -1, (3, 3): -1, (4, 4): 1, (1, 2): 2},
    )


def test_golden_kernel_fork5():
    gA = build_gA(FORK5)
    rep = kernel(gA, PHI_FORK5)
    assert rep.dimension == 1
    assert_proportional(
        rep.generator_coords(),
        {(1, 1): 1, (2, 2): 1, (3, 3): -4, (4, 4): 1, (5, 5): 1, (3, 4): -5, (3, 5): 5},
    )


def test_six_a_frobenius_kernel_trivial():
    gA = build_gA(SIX_A)
    assert kernel(gA, PHI_SIX_A).dimension == 0


def test_kernel_split_full_vs_trace_zero():
    # dim ker in g = dim ker_A + 1, and the identity element lies in ker
    rng = random.Random(1)
    for poset, phi in ((CHAIN4, PHI_CHAIN4), (FORK5, PHI_FORK5), (SIX_A, PHI_SIX_A)):
        g = build_g(poset)
        gA = build_gA(poset)
        full = kernel(g, phi)
        intrinsic = kernel(gA, phi)
        assert full.dimension == intrinsic.dimension + 1
        assert in_kernel(g, phi, g.identity_element())
    for _ in range(5):
        pairs = sorted(SIX_A.relations)
        support = [pq for pq in pairs if rng.random() < 0.5] or pairs[:2]
        phi = OneForm.from_support(SIX_A, support)
        g = build_g(SIX_A)
        gA = build_gA(SIX_A)
        assert kernel(g, phi).dimension == kernel(gA, phi).dimension + 1


def test_index_abelian():
    for d in (1, 2, 5):
        assert index(build_custom(d, {})) == d


def test_index_footnote_algebra():
    assert index(footnote_algebra()) == 1


def test_index_six_a_frobenius():
    assert index(build_gA(SIX_A)) == 0


def test_index_zero_dim_algebra():
    gA = build_gA(Poset.from_covers(1, []))
    assert gA.dim == 0
    assert index(gA) == 0


def test_index_monotone_in_trials():
    gA = build_gA(CHAIN4)
    values = [index(gA, trials=t, seed=11) for t in (1, 2, 5)]
    assert values[0] >= values[1] >= values[2]


def test_index_rejects_fewer_than_one_trial():
    # with no trial run the old loop returned dim: 5 for the 3-chain, whose index is 1
    gA = build_gA(CHAIN3)
    for trials in (0, -1):
        with pytest.raises(ValueError):
            index(gA, trials=trials)
    assert index(gA, trials=1) == 1


@pytest.mark.parametrize("n", [*range(2, 17), 20, 24])
def test_index_chain_formula(n):
    assert index(build_gA(Poset.chain(n))) == (n - 1) // 2


def _reference_phi(algebra, form):
    """φ on the basis through each basis vector's matrix coordinates."""
    return [
        form.evaluate_coords(algebra.to_matrix_coords(algebra._unit(j)))
        for j in range(algebra.dim)
    ]


def _random_form(poset, rng, denominators=(1,)):
    pairs = sorted(poset.relations) + [(p, p) for p in poset.elements]
    return OneForm(
        poset,
        {pq: Fraction(rng.randint(-(1 << 20), 1 << 20), rng.choice(denominators)) for pq in pairs},
    )


def _oracle_posets():
    return enumerate_posets(5, connected_only=False) + [Poset.chain(n) for n in range(2, 13)]


def test_phi_on_basis_closed_form_matches_matrix_coordinates():
    rng = random.Random(5)
    for poset in _oracle_posets():
        form = _random_form(poset, rng, denominators=(1, 2, 3, 7))
        for alg in (build_g(poset), build_gA(poset)):
            assert phi_on_basis(alg, form) == _reference_phi(alg, form)


def test_dphi_rows_modp_corank_matches_exact_rank():
    # the mod-p corank of the integer assembler's rows against exact
    # Bareiss rank on the Fraction dφ matrix built from reference φ values
    rng = random.Random(7)
    for poset in _oracle_posets():
        form = _random_form(poset, rng)
        for alg in (build_g(poset), build_gA(poset)):
            n = alg.dim
            rows, _ = _dphi_rows(alg, phi_on_basis(alg, form))
            exact = n - linalg.rank(dphi_matrix(alg, _reference_phi(alg, form)))
            assert n - linalg.rank_mod_p(rows, n) == exact, (poset.covers, alg.kind)


def test_dphi_rows_scaling_keeps_exact_answers():
    # rational coefficients: kernel, principal element and volume test must
    # match the Fraction dφ matrix through the RatMatrix entry points
    rng = random.Random(9)
    for poset in (CHAIN3, CHAIN4, FORK5, SIX_A):
        form = _random_form(poset, rng, denominators=(2, 3, 5))
        gA = build_gA(poset)
        m = dphi_matrix(gA, _reference_phi(gA, form))
        assert kernel(gA, form).vectors == linalg.kernel_basis(m)
        if gA.dim % 2 == 0:
            x_hat = principal_element(gA, form)
            assert list(x_hat.vec) == linalg.solve(m, phi_on_basis(gA, form))
        else:
            values = phi_on_basis(gA, form)
            bordered = [[0] + values] + [[-v] + row for v, row in zip(values, m.rows)]
            assert is_contact_form_volume(gA, form) == (
                linalg.determinant(linalg.RatMatrix(bordered)) != 0
            )
    # rational structure constants scale the assembled entries as well
    alg = build_custom(3, {(1, 2): {2: Fraction(1, 2)}, (1, 3): {3: Fraction(1, 3)}})
    values = functional_on_basis(alg, [1, Fraction(2, 3), 5])
    assert kernel(alg, values).vectors == linalg.kernel_basis(dphi_matrix(alg, values))
    assert index(alg) == 1


def test_contact_chain4():
    gA = build_gA(CHAIN4)
    res = is_contact_form(gA, PHI_CHAIN4)
    assert res.is_contact
    # Reeb vector: B / |φ(B)| with φ(B) = k11 for the golden generator
    coords = res.reeb.matrix_coords
    assert_proportional(
        coords, {(1, 1): 1, (2, 2): -1, (3, 3): -1, (4, 4): 1, (1, 2): 2}
    )
    assert PHI_CHAIN4.evaluate(res.reeb) in (Fraction(1), Fraction(-1))


def test_contact_footnote_fails():
    alg = footnote_algebra()
    # generic one-forms have a kernel generator killed by φ
    for vals in ([1, 2, 3], [5, 1, 7], [2, 9, 4]):
        res = is_contact_form(alg, functional_on_basis(alg, vals))
        assert not res.is_contact


def test_contact_even_dimension_false():
    gA = build_gA(SIX_A)
    assert not is_contact_form(gA, PHI_SIX_A).is_contact
    with pytest.raises(ShapeError):
        is_contact_form_volume(gA, PHI_SIX_A)


def test_contact_volume_chain3():
    gA = build_gA(CHAIN3)
    phi = OneForm.from_support(CHAIN3, [(1, 1), (1, 3), (2, 3)])
    assert is_contact_form_volume(gA, phi)
    assert is_contact_form(gA, phi).is_contact
    assert not is_contact_form_volume(gA, OneForm(CHAIN3, {}))


def test_contact_volume_pendant_low_7():
    # chain 1..6 plus 2 below 7; explicit contact form
    covers = [(i, i + 1) for i in range(1, 6)] + [(2, 7)]
    poset = Poset.from_covers(7, covers)
    phi = OneForm.from_support(
        poset, [(1, 1), (1, 6), (2, 5), (3, 4), (1, 7), (2, 7), (3, 6)]
    )
    gA = build_gA(poset)
    assert gA.dim == 23
    assert is_contact_form_volume(gA, phi)
    assert is_contact_form(gA, phi).is_contact


def test_contact_oracles_agree_on_random_small_pairs():
    rng = random.Random(2)
    agree = 0
    checked = 0
    while checked < 40:
        n = rng.randint(2, 5)
        covers = [
            (p, q)
            for p in range(1, n + 1)
            for q in range(p + 1, n + 1)
            if rng.random() < 0.4
        ]
        poset = Poset.from_covers(n, covers)
        gA = build_gA(poset)
        if gA.dim % 2 == 0 or gA.dim == 0:
            continue
        pairs = sorted(poset.relations)
        support = [pq for pq in pairs if rng.random() < 0.6]
        if rng.random() < 0.7:
            support.append((1, 1))
        phi = OneForm.from_support(poset, support) if support else OneForm(poset, {})
        lhs = is_contact_form(gA, phi).is_contact
        rhs = is_contact_form_volume(gA, phi)
        assert lhs == rhs
        agree += lhs == rhs
        checked += 1
    assert agree == checked


def test_contact_volume_modp_certificate_matches_exact_rank():
    # the GF(p) shortcut must give the exact bordered-rank verdict; the
    # zero form and sparse 0/1 forms are often not contact, so the exact
    # fallback runs as well
    rng = random.Random(11)
    verdicts = set()
    for poset in enumerate_posets(5):
        for alg in (build_g(poset), build_gA(poset)):
            n = alg.dim
            if n % 2 == 0:
                continue
            pairs = sorted(poset.relations) + [(p, p) for p in poset.elements]
            sparse = OneForm.from_support(poset, [pq for pq in pairs if rng.random() < 0.5])
            for form in (OneForm(poset, {}), sparse, _random_form(poset, rng)):
                rows, phi = _dphi_rows(alg, phi_on_basis(alg, form))
                bordered = [{j + 1: x for j, x in enumerate(phi) if x}] + [
                    ({0: -p} if p else {}) | {j + 1: v for j, v in row.items()}
                    for p, row in zip(phi, rows)
                ]
                exact = linalg.int_rank(bordered, n + 1) == n + 1
                assert is_contact_form_volume(alg, form) == exact, (poset.covers, alg.kind)
                verdicts.add(exact)
    assert verdicts == {True, False}


def test_principal_element_chain2():
    gA = build_gA(CHAIN2)
    phi = OneForm.from_support(CHAIN2, [(1, 2)])
    x_hat = principal_element(gA, phi)
    assert x_hat.matrix_coords == {(1, 1): Fraction(1, 2), (2, 2): Fraction(-1, 2)}
    assert char_poly(gA.ad_matrix(x_hat)) == [1, -1, 0]  # λ² - λ
    assert is_binary_spectrum(gA, phi)


def test_principal_element_not_frobenius():
    gA = build_gA(CHAIN4)
    with pytest.raises(NotFrobeniusError):
        principal_element(gA, PHI_CHAIN4)  # contact, kernel dim 1


def test_principal_element_defining_property():
    gA = build_gA(SIX_A)
    x_hat = principal_element(gA, PHI_SIX_A)
    for j in range(gA.dim):
        b = gA.basis_element(j)
        assert PHI_SIX_A.evaluate(x_hat.bracket(b)) == PHI_SIX_A.evaluate(b)


def test_binary_spectrum_six_a():
    assert is_binary_spectrum(build_gA(SIX_A), PHI_SIX_A)


def test_binary_spectrum_odd_dimension_false():
    gA = build_gA(CHAIN2)
    # dim 2 is even; use a custom odd-dim Frobenius-free criterion instead:
    g_odd = build_gA(CHAIN3)
    phi = OneForm.from_support(CHAIN3, [(1, 3), (2, 3)])
    assert not is_binary_spectrum(g_odd, phi)


def test_spectrum_invariance_across_frobenius_forms():
    gA = build_gA(SIX_A)
    # second Frobenius form on the same algebra, found by small search
    from itertools import combinations

    pairs = sorted(SIX_A.relations)
    reference = spectrum(gA, PHI_SIX_A)
    alternates = 0
    for support in combinations(pairs, SIX_A.n - 1):
        if set(support) == PHI_SIX_A.strict_support:
            continue
        phi = OneForm.from_support(SIX_A, support)
        if not is_small(SIX_A, phi):
            continue
        if kernel(gA, phi).dimension != 0:
            continue
        assert spectrum(gA, phi) == reference
        alternates += 1
        if alternates >= 3:
            break
    assert alternates >= 1


def _poly_from_roots(roots):
    """Descending coefficients of the product of (λ - r)."""
    coeffs = [Fraction(1)]
    for r in roots:
        nxt = coeffs + [Fraction(0)]
        for k, c in enumerate(coeffs):
            nxt[k + 1] -= r * c
        coeffs = nxt
    return coeffs


def test_ad_weights_match_faddeev_for_non_diagonal_elements():
    rng = random.Random(17)
    checked = 0
    for poset in enumerate_posets(5, connected_only=False):
        for alg in (build_g(poset), build_gA(poset)):
            strict = [i for i, lab in enumerate(alg.labels) if lab[0] == "e"]
            for _ in range(2):
                vec = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(alg.dim)]
                if strict:
                    vec[rng.choice(strict)] = Fraction(rng.randint(1, 6), rng.randint(1, 4))
                x = alg.element(vec)
                expected = char_poly(alg.ad_matrix(x))
                assert _poly_from_roots(ad_weights(alg, x)) == expected, (poset.covers, alg.kind)
                checked += 1
    assert checked == 2 * 2 * 87


def test_spectrum_matches_faddeev_on_searched_frobenius_forms():
    from lieposet.toral.blocks import derive_small_frobenius_form

    forms = 0
    for poset in enumerate_posets(6):
        form = derive_small_frobenius_form(poset)
        if form is None:
            continue
        gA = build_gA(poset)
        reference = char_poly(gA.ad_matrix(principal_element(gA, form)))
        half = gA.dim // 2
        binary = reference == _poly_from_roots([0] * half + [1] * half)
        assert spectrum(gA, form) == reference, poset.covers
        assert is_binary_spectrum(gA, form) == binary, poset.covers
        forms += 1
    assert forms == 71


def test_spectrum_of_custom_algebra_is_shape_error():
    alg = build_custom(2, {(1, 2): {2: 1}})  # [e1, e2] = e2, Frobenius for e2*
    assert principal_element(alg, [0, 1]).vec == (1, 0)
    with pytest.raises(ShapeError):
        is_binary_spectrum(alg, [0, 1])
    with pytest.raises(ShapeError):
        spectrum(alg, [0, 1])


def test_form_graph_contact_chain3():
    phi = OneForm.from_support(CHAIN3, [(1, 1), (1, 3), (2, 3)])
    stripped = phi.without_diagonal()
    assert is_small(CHAIN3, stripped)
    u, d, o = udo_partition(CHAIN3, stripped)
    assert u == {3} and d == {1, 2} and o == frozenset()


def test_form_graph_fork5():
    stripped = PHI_FORK5.without_diagonal()
    assert is_small(FORK5, stripped)
    u, d, o = udo_partition(FORK5, stripped)
    assert u == {3, 4, 5} and d == {1, 2} and o == frozenset()


def test_empty_support_not_small():
    assert not is_small(CHAIN2, OneForm(CHAIN2, {}))
    assert is_small(Poset.from_covers(1, []), OneForm(Poset.from_covers(1, []), {}))


def test_form_graph_interior_detected():
    phi = OneForm.from_support(CHAIN3, [(1, 2), (2, 3)])
    assert udo_partition(CHAIN3, phi)[2] == {2}
