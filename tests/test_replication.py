import random
from fractions import Fraction

import pytest

from tusolve import (
    ClassBoundaryError,
    certify_unique,
    convex_combine,
    critical_bound,
    family_nullspace,
    is_prekernel,
    kohlberg_criterion,
    power_system,
    quadratic_system,
    related_game,
    replicate_family,
    segment_sample,
    surplus_profile,
)
from tusolve.coalitions import all_coalitions, indicator
from tusolve.game import extend_payoff, unanimity_values
from tusolve.linalg import Matrix, pseudo_inverse, rank

from helpers import BASE_POINT, random_game, random_payoff, unanimity_basis


@pytest.fixture(scope="module")
def base_profile(base_game):
    return surplus_profile(base_game, BASE_POINT)


@pytest.fixture(scope="module")
def base_system(base_game, base_profile):
    return quadratic_system(base_game, base_profile)


@pytest.fixture(scope="module")
def base_power(base_game, base_profile):
    return power_system(base_game, base_profile)


@pytest.fixture(scope="module")
def base_family(base_game):
    return replicate_family(base_game, BASE_POINT, Fraction(9, 10))


def power_cases(base_game):
    """The base game at its point, then seeded (game, payoff) pairs, n = 2..5."""
    yield base_game, BASE_POINT
    rng = random.Random(51)
    for n in range(2, 6):
        for _ in range(6):
            yield random_game(n, rng), random_payoff(n, rng)


def xi_at(psys, game, x):
    """Excess-imbalance vector V^T (v - xbar) of the selected pairs."""
    xbar = extend_payoff(x, game.n)
    diff = [game.values[m - 1] - xbar[m] for m in range(1, (1 << game.n))]
    return psys.v_matrix.transpose().apply(diff)


class TestPowerSystem:
    def test_dimensions(self, base_power):
        assert base_power.v_matrix.nrows == 15 and base_power.v_matrix.ncols == 7
        assert base_power.w_matrix.nrows == 7 and base_power.w_matrix.ncols == 15
        assert base_power.w_matrix == base_power.v_matrix.transpose() @ unanimity_basis(4)

    def test_rank_w(self, base_power):
        assert rank(base_power.w_matrix) == 4

    def test_w_matrix_is_vt_u(self, base_game):
        for game, x in power_cases(base_game):
            psys = power_system(game, surplus_profile(game, x))
            assert psys.w_matrix == psys.v_matrix.transpose() @ unanimity_basis(game.n)

    def test_alpha_from_v(self, base_game):
        for game, x in power_cases(base_game):
            profile = surplus_profile(game, x)
            psys = power_system(game, profile)
            vt_v = psys.v_matrix.transpose().apply(list(game.values))
            assert tuple(vt_v) == psys.alpha_vec == quadratic_system(game, profile).alpha_vec

    def test_sign_matrix_factors_through_v(self, base_game):
        # E^T = V^T Z^T with Z^T[S][k] = -1 for k in S: the range inclusion
        for game, x in power_cases(base_game):
            profile = surplus_profile(game, x)
            psys = power_system(game, profile)
            z_t = Matrix.from_rows(
                [[-c for c in indicator(m, game.n)] for m in all_coalitions(game.n)]
            )
            e_t = quadratic_system(game, profile).e_matrix.transpose()
            assert psys.v_matrix.transpose() @ z_t == e_t

    def test_unanimity_basis_invertible(self):
        u = unanimity_basis(3)
        assert rank(u) == 7

    def test_projection_onto_v_rows(self, base_power, base_system):
        vt = base_power.v_matrix.transpose()
        p_v = vt @ pseudo_inverse(vt)
        assert p_v.apply(base_power.alpha_vec) == base_power.alpha_vec
        et = base_system.e_matrix.transpose()
        assert p_v @ et == et
        assert base_system.e_matrix @ p_v == base_system.e_matrix
        xi = base_system.xi_vector((4, 4, 4, 4))
        assert p_v.apply(xi) == xi


class TestFamilyNullspace:
    def test_dimension_eleven(self, base_power):
        deltas = family_nullspace(base_power)
        assert len(deltas) == 11

    def test_annihilation_and_integrality(self, base_power):
        for delta in family_nullspace(base_power):
            assert all(f.denominator == 1 for f in delta)
            assert all(val == 0 for val in base_power.w_matrix.apply(delta))
            shift = unanimity_values(delta)
            assert all(val == 0 for val in base_power.v_matrix.transpose().apply(list(shift)))


class TestRelatedGame:
    def test_mu_zero_is_identity(self, base_game, base_power):
        delta = family_nullspace(base_power)[0]
        assert related_game(base_game, delta, 0) == base_game

    def test_alpha_preserved(self, base_game, base_power, base_profile):
        rng = random.Random(15)
        for delta in family_nullspace(base_power)[:4]:
            mu = Fraction(rng.randint(-10, 10), rng.randint(1, 10))
            game = related_game(base_game, delta, mu)
            assert tuple(base_power.v_matrix.transpose().apply(list(game.values))) == base_power.alpha_vec
            for i, j in base_profile.pairs()[:4]:
                s_ij = base_profile.get(i, j)
                s_ji = base_profile.get(j, i)
                assert game.value(s_ij) - game.value(s_ji) == base_game.value(s_ij) - base_game.value(s_ji)

    def test_family_member_keeps_prekernel_point(self, base_family):
        for game in base_family.games:
            assert is_prekernel(game, BASE_POINT)


class TestCriticalBound:
    def test_positive_for_base_game(self, base_game, base_system):
        bound = critical_bound(base_game, BASE_POINT, base_system)
        assert bound > 0

    def test_pair_direction_norms_positive(self, base_system):
        et = base_system.e_matrix.transpose()
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                d = [Fraction(0)] * 4
                d[i] = Fraction(-1)
                d[j] = Fraction(1)
                assert any(val != 0 for val in et.apply(d))

    def test_boundary_point_signals(self, segment_game):
        edge = (Fraction(2), Fraction(2), Fraction(0), Fraction(0))
        sys = quadratic_system(segment_game, surplus_profile(segment_game, edge))
        with pytest.raises(
            ClassBoundaryError,
            match=r"^the pre-kernel point lies on the boundary of its selection class, so the"
            r" interior condition fails: no positive step in direction \(1, 2\); tied maximum"
            r" surpluses: of 3 over 2 by \{3\}, \{1,3\}, \{3,4\}; of 3 over 4 by",
        ):
            critical_bound(segment_game, edge, sys)

    def test_requires_prekernel(self, base_game, base_system):
        with pytest.raises(ValueError):
            critical_bound(base_game, (4, 4, 4, 4), base_system)


class TestReplicateFamily:
    def test_eleven_games_all_verified(self, base_game, base_family, base_profile):
        assert len(base_family.games) == 11
        for game in base_family.games:
            assert is_prekernel(game, BASE_POINT)
            assert surplus_profile(game, BASE_POINT) == base_profile
            assert kohlberg_criterion(game, BASE_POINT)
            assert certify_unique(game, BASE_POINT) is not None

    def test_linear_independence(self, base_family):
        stacked = Matrix.from_rows([list(g.values) for g in base_family.games])
        assert rank(stacked) == 11

    def test_imbalance_vector_invariant(self, base_power, base_family, base_game):
        base_xi = xi_at(base_power, base_game, BASE_POINT)
        assert all(v == 0 for v in base_xi)
        for game in base_family.games:
            assert xi_at(base_power, game, BASE_POINT) == base_xi

    def test_mu_zero_gives_copies(self, base_game):
        family = replicate_family(base_game, BASE_POINT, 0)
        assert all(g == base_game for g in family.games)

    def test_rejects_non_prekernel_point(self, base_game):
        with pytest.raises(ValueError):
            replicate_family(base_game, (4, 4, 4, 4), Fraction(9, 10))


class TestConvexCombine:
    def test_all_weight_on_one(self, base_family):
        members = list(base_family.games) + [base_family.base]
        weights = [Fraction(0)] * len(members)
        weights[3] = Fraction(1)
        assert convex_combine(members, weights) == members[3]

    def test_published_weights_keep_prekernel(self, base_family):
        members = list(base_family.games) + [base_family.base]
        weights = [Fraction(k, 48) for k in (1, 3, 8, 1, 2, 4, 3, 5, 7, 9, 2, 3)]
        combined = convex_combine(members, weights)
        assert is_prekernel(combined, BASE_POINT)

    def test_midpoint_of_two_members(self, base_family):
        combined = convex_combine(
            [base_family.games[0], base_family.games[5]], [Fraction(1, 2), Fraction(1, 2)]
        )
        assert is_prekernel(combined, BASE_POINT)

    def test_weight_validation(self, base_family):
        members = list(base_family.games) + [base_family.base]
        with pytest.raises(ValueError):
            convex_combine(members, [Fraction(1)] * len(members))
        with pytest.raises(ValueError):
            convex_combine(members, [Fraction(-1)] + [Fraction(2)] + [Fraction(0)] * (len(members) - 2))


class TestSegmentSample:
    def test_zero_epsilon_is_unperturbed(self, base_family):
        weights = [Fraction(k, 48) for k in (1, 3, 8, 1, 2, 4, 3, 5, 7, 9, 2, 3)]
        members = list(base_family.games) + [base_family.base]
        [game] = segment_sample(base_family, 5, 10, [Fraction(0)], weights)
        assert game == convex_combine(members, weights)

    def test_extreme_epsilons(self, base_family):
        weights = [Fraction(k, 48) for k in (1, 3, 8, 1, 2, 4, 3, 5, 7, 9, 2, 3)]
        games = segment_sample(
            base_family, 5, 10, [Fraction(-2, 48), Fraction(2, 48)], weights
        )
        assert all(is_prekernel(g, BASE_POINT) for g in games)

    def test_out_of_simplex_rejected(self, base_family):
        weights = [Fraction(k, 48) for k in (1, 3, 8, 1, 2, 4, 3, 5, 7, 9, 2, 3)]
        with pytest.raises(ValueError):
            segment_sample(base_family, 5, 10, [Fraction(3, 48)], weights)

    def test_bad_indices_rejected(self, base_family):
        with pytest.raises(ValueError):
            segment_sample(base_family, 5, 5, [Fraction(0)])
        with pytest.raises(ValueError):
            segment_sample(base_family, 0, 11, [Fraction(0)])
