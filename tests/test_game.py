"""Graph construction, Cartesian products, and Lights Out! semantics."""

import random
import tracemalloc
from itertools import product

import pytest

from helpers import all_vectors
from lightsout import _gf2kernel, game, gfmat
from lightsout.game import (
    Graph,
    GraphParseError,
    LightsInstance,
    build_family,
    cartesian_product,
    count_exponents,
    parse_graph_text,
    solve_presses,
    switching_matrix,
    sylvester_solve,
)
from lightsout.gfmat import PrimeFieldMatrix


class TestFamilies:
    def test_petersen(self):
        g = build_family("petersen")
        assert g.vertex_count == 10
        assert len(g.edges) == 15
        assert set(map(sum, switching_matrix(g).to_lists())) == {3}

    def test_star_degrees(self):
        g = build_family("star:5")
        assert sorted(map(sum, switching_matrix(g).to_lists()), reverse=True) == [4, 1, 1, 1, 1]

    def test_single_vertex_path(self):
        g = build_family("path:1")
        assert (g.vertex_count, len(g.edges)) == (1, 0)

    def test_cycle_and_complete(self):
        assert len(build_family("cycle:5").edges) == 5
        assert len(build_family("complete:4").edges) == 6

    def test_grid_is_path_product(self):
        g = build_family("grid:3x4")
        assert g == cartesian_product(game.path_graph(3), game.path_graph(4))

    def test_malformed_specs(self):
        for bad in ("path", "path:x", "grid:3", "grid:3y4", "petersen:5",
                    "torus:3", "star:", "file:"):
            with pytest.raises(GraphParseError):
                build_family(bad)

    def test_family_order_reads_the_vertex_count_off_the_spec(self):
        for spec in ("petersen", "path:1", "cycle:5", "star:7", "complete:4", " GRID:3x4"):
            assert game.family_order(spec) == build_family(spec).vertex_count
        assert game.family_order("file:/nonexistent/graph.txt") is None
        assert game.family_order("path:10000000000") == 10**10
        for bad in ("path", "path:x", "grid:3", "petersen:5", "torus:3", "file:"):
            with pytest.raises(GraphParseError):
                game.family_order(bad)

    def test_cycle_minimum(self):
        with pytest.raises(GraphParseError):
            build_family("cycle:2")

    def test_graph_validation(self):
        with pytest.raises(ValueError):
            Graph(2, frozenset({(0, 2)}))
        with pytest.raises(ValueError):
            Graph(2, frozenset({(1, 1)}))


class TestGraphFiles:
    def test_parse_with_comments(self):
        text = "# triangle plus isolated vertex\n4\n0 1\n\n0 2   # chord\n1 2\n"
        g = parse_graph_text(text)
        assert g.vertex_count == 4
        assert g.edges == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3\n0 1\n1 2\n")
        assert build_family(f"file:{path}") == game.path_graph(3)

    def test_missing_file(self):
        with pytest.raises(GraphParseError):
            build_family("file:/nonexistent/graph.txt")

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "empty"),
            ("x\n", ":1:"),
            ("3\n0\n", ":2:"),
            ("3\n0 0\n", "loop"),
            ("3\n1 0\n", "u < v"),
            ("3\n0 3\n", "out of range"),
            ("3\n0 1\n0 1\n", "duplicate"),
            ("3\n0 one\n", "integers"),
        ],
    )
    def test_errors_carry_position(self, text, fragment):
        with pytest.raises(GraphParseError, match=fragment):
            parse_graph_text(text)

    def test_line_and_column_reported(self):
        for text, where in (
            ("3\n0 1\n0 3\n", "<string>:3:3:"),
            ("3\n0 1\n2 2\n", "<string>:3:3:"),  # loop: the second 2, not the first
            ("3\n0 1\n  1 1\n", "<string>:3:5:"),
        ):
            with pytest.raises(GraphParseError, match=where):
                parse_graph_text(text)


class TestCartesianProduct:
    def test_square_of_edge_is_four_cycle(self):
        g = cartesian_product(game.path_graph(2), game.path_graph(2))
        assert (g.vertex_count, len(g.edges)) == (4, 4)
        assert set(map(sum, switching_matrix(g).to_lists())) == {2}

    def test_grid_5x5_counts(self):
        g = build_family("grid:5x5")
        assert (g.vertex_count, len(g.edges)) == (25, 40)

    def test_identity_factor(self):
        g = build_family("petersen")
        assert cartesian_product(g, game.path_graph(1)) == g

    def test_edge_count_law(self):
        rng = random.Random(127)
        for _ in range(20):
            g = game.random_graph(rng.randint(1, 6), rng)
            h = game.random_graph(rng.randint(1, 6), rng)
            prod_graph = cartesian_product(g, h)
            assert len(prod_graph.edges) == (
                h.vertex_count * len(g.edges) + g.vertex_count * len(h.edges)
            )

    def test_product_matrix_is_sylvester_operator(self):
        # The fixed vertex indexing makes the product's switching matrix
        # literally equal to the operator built from the factors over GF(2).
        rng = random.Random(131)
        for _ in range(100):
            g = game.random_graph(rng.randint(1, 8), rng)
            h = game.random_graph(rng.randint(1, 8), rng)
            A = switching_matrix(g, "open")
            B = switching_matrix(h, "open")
            prod_graph = cartesian_product(g, h)
            assert switching_matrix(prod_graph, "open") == gfmat.sylvester_operator(A, B)
            closed_first = switching_matrix(g, "closed")
            assert switching_matrix(prod_graph, "closed") == gfmat.sylvester_operator(
                closed_first, B
            )

    def test_commutative_up_to_permutation(self):
        rng = random.Random(137)
        for _ in range(20):
            g = game.random_graph(rng.randint(1, 5), rng)
            h = game.random_graph(rng.randint(1, 5), rng)
            m, n = g.vertex_count, h.vertex_count
            gh = cartesian_product(g, h)
            hg = cartesian_product(h, g)
            # vertex (i, j) sits at j*m + i in g x h and at i*n + j in h x g
            perm = {j * m + i: i * n + j for i in range(m) for j in range(n)}
            mapped = frozenset(
                (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in gh.edges
            )
            assert mapped == hg.edges


class TestSwitchingMatrix:
    def test_open_edge(self):
        assert switching_matrix(game.path_graph(2), "open").to_lists() == [
            [0, 1],
            [1, 0],
        ]

    def test_closed_edge(self):
        assert switching_matrix(game.path_graph(2), "closed").to_lists() == [
            [1, 1],
            [1, 1],
        ]

    def test_closed_triangle_all_ones(self):
        assert switching_matrix(build_family("complete:3"), "closed").to_lists() == [
            [1, 1, 1]
        ] * 3

    def test_symmetry(self):
        rng = random.Random(139)
        g = game.random_graph(7, rng)
        for mode in ("open", "closed"):
            M = switching_matrix(g, mode)
            assert M == M.transpose()

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            switching_matrix(game.path_graph(2), "sideways")

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_equals_matrix_filled_from_the_edges(self, p):
        rng = random.Random(157 + p)
        for n in range(13):
            g = game.random_graph(n, rng)
            for mode in ("open", "closed"):
                lists = [[int(mode == "closed" and i == j) for j in range(n)] for i in range(n)]
                for u, v in g.edges:
                    lists[u][v] = lists[v][u] = 1
                M = switching_matrix(g, mode, p)
                assert M == PrimeFieldMatrix(lists, p)
                assert (M.rows, M.cols) == (n, n)

    def test_grid_builds_no_square_intermediate(self):
        # a 4096 x 4096 list of ints alone would take over 128 MiB
        g = build_family("grid:64x64")
        tracemalloc.start()
        try:
            M = switching_matrix(g, "closed")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert M.rows == 4096
        assert peak < 16 * 2**20


class TestSolvability:
    def test_path3_solvable_config(self):
        inst = LightsInstance(game.path_graph(3), "open", (1, 0, 1))
        assert solve_presses(inst) is not None

    def test_path3_unsolvable_config(self):
        inst = LightsInstance(game.path_graph(3), "open", (1, 0, 0))
        assert solve_presses(inst) is None

    def test_all_off_always_solvable(self):
        rng = random.Random(149)
        for _ in range(10):
            g = game.random_graph(rng.randint(1, 7), rng)
            mode = rng.choice(("open", "closed"))
            assert solve_presses(LightsInstance(g, mode, (0,) * g.vertex_count)) is not None

    def test_config_length_validated(self):
        with pytest.raises(ValueError):
            LightsInstance(game.path_graph(3), "open", (1, 0))
        with pytest.raises(ValueError):
            LightsInstance(game.path_graph(2), "open", (2, 0))


class TestSolvePresses:
    def test_path3_particular_solution(self):
        sol = solve_presses(LightsInstance(game.path_graph(3), "open", (1, 0, 1)))
        assert sol.presses == (0, 1, 0)
        assert sol.kernel == ((1, 0, 1),)

    def test_path3_full_solution_set(self):
        sol = solve_presses(LightsInstance(game.path_graph(3), "open", (1, 0, 1)))
        assert set(sol.all_solutions()) == {(0, 1, 0), (1, 1, 1)}

    def test_unsolvable_returns_none(self):
        assert solve_presses(LightsInstance(game.path_graph(3), "open", (1, 0, 0))) is None

    def test_classic_grid_all_on(self):
        g = build_family("grid:5x5")
        inst = LightsInstance(g, "closed", (1,) * 25)
        sol = solve_presses(inst)
        assert sol is not None
        M = switching_matrix(g, "closed")
        assert M.mul_vec(sol.presses) == (1,) * 25
        assert sol.count_exponent == 2

    def test_every_coset_member_solves(self):
        rng = random.Random(151)
        for _ in range(15):
            g = game.random_graph(rng.randint(1, 4), rng)
            mode = rng.choice(("open", "closed"))
            config = tuple(rng.getrandbits(1) for _ in range(g.vertex_count))
            sol = solve_presses(LightsInstance(g, mode, config))
            if sol is None:
                continue
            M = switching_matrix(g, mode)
            for x in sol.all_solutions():
                assert M.mul_vec(x) == config

    def test_one_elimination_per_instance(self, monkeypatch):
        calls = []
        original = _gf2kernel.echelon_bits

        def counted(rows, ncols, reduced=True):
            calls.append(reduced)
            return original(rows, ncols, reduced)

        monkeypatch.setattr(_gf2kernel, "echelon_bits", counted)
        for config in ((1, 0, 1), (1, 0, 0)):
            calls.clear()
            solve_presses(LightsInstance(game.path_graph(3), "open", config))
            assert calls == [False]
        calls.clear()
        solve_presses(LightsInstance(build_family("grid:8x8"), "closed", (1,) * 64))
        assert calls == [False]


class TestCountExponents:
    def test_path3_open(self):
        assert count_exponents(game.path_graph(3), "open") == (2, 1)

    def test_single_vertex_open(self):
        assert count_exponents(game.path_graph(1), "open") == (0, 1)

    def test_grid5x5_closed(self):
        assert count_exponents(build_family("grid:5x5"), "closed") == (23, 2)

    def test_solvable_count_by_exhaustion(self):
        # 2^r solvable configurations: enumerate the image of the press map.
        rng = random.Random(157)
        for _ in range(8):
            n = rng.randint(1, 12)
            g = game.random_graph(n, rng)
            mode = rng.choice(("open", "closed"))
            M = switching_matrix(g, mode)
            reachable = {M.mul_vec(x) for x in all_vectors(n)}
            r, nu = count_exponents(g, mode)
            assert len(reachable) == 2**r
            assert 2**r * 2**nu == 2**n


class TestSylvesterSolve:
    def test_all_ones_on_edge_pair(self):
        A = switching_matrix(game.path_graph(2))
        C = PrimeFieldMatrix([[1, 1], [1, 1]], 2)
        X = sylvester_solve(A, A, C)
        assert X is not None
        assert (A @ X) - (X @ A) == C
        # independent oracle: enumerate all 16 candidates
        witnesses = [
            entries
            for entries in product((0, 1), repeat=4)
            if (lambda M: (A @ M) - (M @ A) == C)(
                PrimeFieldMatrix([entries[:2], entries[2:]], 2)
            )
        ]
        assert len(witnesses) == 4  # 2^nullity with nullity 2
        assert tuple(X.row(0) + X.row(1)) in witnesses

    def test_zero_rhs_gives_zero_solution_option(self):
        A = switching_matrix(game.path_graph(2))
        X = sylvester_solve(A, A, PrimeFieldMatrix.zeros(2, 2, 2))
        assert X is not None
        assert (A @ X) - (X @ A) == PrimeFieldMatrix.zeros(2, 2, 2)

    def test_zero_operator_unsolvable(self):
        Z = PrimeFieldMatrix([[0]], 2)
        assert sylvester_solve(Z, Z, PrimeFieldMatrix([[1]], 2)) is None

    def test_dimension_checks(self):
        A = switching_matrix(game.path_graph(2))
        with pytest.raises(ValueError):
            sylvester_solve(A, A, PrimeFieldMatrix.zeros(3, 2, 2))
        with pytest.raises(ValueError):
            sylvester_solve(A, PrimeFieldMatrix([[0]], 3), PrimeFieldMatrix.zeros(2, 1, 2))
        with pytest.raises(ValueError, match="square"):
            sylvester_solve(PrimeFieldMatrix([[1, 0]], 2), A, PrimeFieldMatrix.zeros(1, 2, 2))

    @pytest.mark.parametrize("p", [2, 3])
    def test_solution_has_the_problem_shape_when_a_side_is_empty(self, p):
        for m, n in ((0, 3), (3, 0), (0, 0)):
            A = switching_matrix(game.random_graph(m, random.Random(m)), "open", p)
            B = switching_matrix(game.random_graph(n, random.Random(n)), "closed", p)
            C = PrimeFieldMatrix.zeros(m, n, p)
            X = sylvester_solve(A, B, C)
            assert (X.rows, X.cols) == (m, n)
            assert (A @ X) - (X @ B) == C

    def test_solution_found_iff_vectorized_system_solvable(self):
        rng = random.Random(163)
        for _ in range(25):
            p = rng.choice((2, 3))
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            A = PrimeFieldMatrix(
                [[rng.randrange(p) for _ in range(m)] for _ in range(m)], p
            )
            B = PrimeFieldMatrix(
                [[rng.randrange(p) for _ in range(n)] for _ in range(n)], p
            )
            C = PrimeFieldMatrix(
                [[rng.randrange(p) for _ in range(n)] for _ in range(m)], p
            )
            op = gfmat.sylvester_operator(A, B)
            vec = [C[i, j] for j in range(n) for i in range(m)]
            X = sylvester_solve(A, B, C)
            if gfmat.solve(op, vec) is None:
                assert X is None
            else:
                assert X is not None
                assert (A @ X) - (X @ B) == C


class TestRandomGraph:
    def test_deterministic_for_seed(self):
        a = game.random_graph(8, random.Random(5))
        b = game.random_graph(8, random.Random(5))
        assert a == b

    def test_respects_vertex_count(self):
        g = game.random_graph(5, random.Random(1))
        assert g.vertex_count == 5


class TestRecords:
    def test_graph_equality_and_hash_follow_the_fields(self):
        g = Graph(3, frozenset({(0, 1), (1, 2)}))
        same = Graph.from_edges(3, [(2, 1), (1, 0)])
        assert g == same and hash(g) == hash(same)
        assert g == Graph(vertex_count=3, edges=frozenset({(0, 1), (1, 2)}))
        assert g != Graph(4, g.edges)
        assert g != Graph(3, frozenset({(0, 1)}))
        assert g != (3, g.edges)  # a record, not a tuple
        assert len({g, same, build_family("path:3")}) == 1

    def test_graph_is_immutable(self):
        g = build_family("path:3")
        for name, value in (("vertex_count", 4), ("edges", frozenset())):
            with pytest.raises(AttributeError):
                setattr(g, name, value)
        assert g == build_family("path:3")

    @pytest.mark.parametrize(
        "n, edges",
        [(-1, ()), (2, ((0, 2),)), (2, ((1, 0),)), (2, ((1, 1),)), (3, ((-1, 2),))],
    )
    def test_graph_validates_on_construction(self, n, edges):
        with pytest.raises(ValueError):
            Graph(n, frozenset(edges))

    def test_equal_graphs_share_one_factor_summary(self):
        from lightsout import cli

        memo = {}
        first = cli._factor(memo, build_family("path:3"), "open", 2)
        again = cli._factor(memo, Graph.from_edges(3, [(1, 2), (0, 1)]), "open", 2)
        assert again is first and len(memo) == 1
        cli._factor(memo, build_family("path:3"), "closed", 2)
        assert len(memo) == 2

    def test_lights_instance_fields_equality_and_immutability(self):
        g = build_family("path:3")
        inst = LightsInstance(g, "open", (1, 0, 1))
        assert (inst.graph, inst.mode, inst.config) == (g, "open", (1, 0, 1))
        same = LightsInstance(graph=build_family("path:3"), mode="open", config=(1, 0, 1))
        assert inst == same and hash(inst) == hash(same)
        assert inst != LightsInstance(g, "closed", (1, 0, 1))
        with pytest.raises(AttributeError):
            inst.config = (0, 0, 0)

    @pytest.mark.parametrize(
        "mode, config",
        [("toggle", (1, 0, 1)), ("open", (1, 0)), ("open", (1, 0, 1, 1)), ("closed", (0, 2, 1))],
    )
    def test_lights_instance_validates_on_construction(self, mode, config):
        with pytest.raises(ValueError):
            LightsInstance(build_family("path:3"), mode, config)

    def test_press_solution_fields_and_equality(self):
        sol = solve_presses(LightsInstance(game.path_graph(3), "open", (1, 0, 1)))
        assert (sol.presses, sol.kernel, sol.count_exponent) == ((0, 1, 0), ((1, 0, 1),), 1)
        assert sol == game.PressSolution(presses=(0, 1, 0), kernel=((1, 0, 1),))
        assert sol == game.PressSolution((0, 1, 0), ((1, 0, 1),))
        assert sol != game.PressSolution((1, 1, 1), ((1, 0, 1),))
        with pytest.raises(AttributeError):
            sol.presses = (1, 1, 1)
