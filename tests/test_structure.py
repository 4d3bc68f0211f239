"""Rules that one function owns: the package's AST holds no second copy of them."""

import ast
import inspect
from pathlib import Path

import wtdesigns

PACKAGE = Path(wtdesigns.__file__).resolve().parent


def _references(name):
    """(module, innermost enclosing function) of every load of name, bare or as an attribute."""
    found = []

    class Visitor(ast.NodeVisitor):
        scope = ["<module>"]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Name(self, node):
            if node.id == name and isinstance(node.ctx, ast.Load):
                found.append((module, self.scope[-1]))

        def visit_Attribute(self, node):
            if node.attr == name and isinstance(node.ctx, ast.Load):
                found.append((module, self.scope[-1]))
            self.generic_visit(node)

    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        Visitor().visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


def _imported_names(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return {
        alias.name.split(".")[-1]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


def test_the_sequential_cut_is_written_once():
    # every search cuts through _rank_candidates, which alone applies _keep_minimal
    assert _references("_keep_minimal") == [("aberration", "_rank_candidates")]
    assert ("optimal", "search_shifts") in _references("_rank_candidates")


def test_cli_builds_family_members_through_build_design():
    imported = _imported_names("cli")
    assert "build_design" in imported
    assert not imported & {"linear_permute", "williams"}


def test_one_tie_band():
    # the band is a constant that _cut alone reads; no public call takes a tolerance
    # (exception classes are skipped: their builtin constructor has no signature)
    assert _references("DEFAULT_TOL") == [("aberration", "_cut")]
    for name in wtdesigns.__all__:
        obj = getattr(wtdesigns, name)
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception)):
            assert "tol" not in inspect.signature(obj).parameters, name


def test_theorem1_is_decided_on_the_integer_table():
    # no float grid, no support table and no per-set enumeration or generator
    # set: theorems 1 and 2 decide every set from exact run-sum totals alone
    exact = {
        ("optimal", "_theorem1"),
        ("optimal", "_theorem2"),
        ("optimal", "_triple_survivors"),
        ("optimal", "_triple_table"),
    }
    for name in ("shift_betas", "beta_k_stack", "shift_grid_beta", "_support_table",
                 "GeneratorSet", "optimal_shift_williams"):
        assert not exact & set(_references(name)), name
    # theorem 4 reads each set's coefficients and shifts, and builds no level stack
    assert ("optimal", "_theorem4") in _references("_closed_form_shifts")
    for name in ("_member_stacks", "expand_stack", "shift_stack", "mirror_symmetric_stack",
                 "_canonical_keys"):
        assert ("optimal", "_theorem4") not in _references(name), name


def test_q2_cut_is_decided_on_integer_keys():
    # the representatives' beta_4 keys, both families in one call, read no
    # float measure: one builder of J, cached on the shift centre, serves
    # them, and theorem 1 reads its S from the shift grids' T
    for name in ("shift_betas", "beta_k_stack", "orthonormal_basis", "_rank_candidates"):
        assert ("optimal", "_beta4_keys") not in _references(name), name
    assert _references("_quad_table") == [("optimal", "_beta4_keys")]
    assert set(_references("_triple_table")) == {
        ("optimal", "_theorem1"), ("optimal", "_triple_survivors"),
    }
    assert _references("_beta4_keys") == [("optimal", "search_q2")]
    assert _references("_family_ties") == [("optimal", "search_q2")]
    assert _references("isin") == []


def test_search_q2_is_one_pass_over_the_cell(monkeypatch):
    # per cell: one key-builder call for both families and one beta_k_stack
    # call for both winners; no per-family shift_betas call and no full
    # pattern. q=7 n=3 first ranks its two tied linear orbits on beta_1..beta_6,
    # one beta_k_stack call per degree
    from wtdesigns import optimal

    calls = []

    def spy(name):
        real = getattr(optimal, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(optimal, name, counted)

    for name in ("_beta4_keys", "beta_k_stack", "shift_betas", "_member_patterns", "beta_pattern"):
        spy(name)
    for q, n in ((5, 4), (7, 3), (7, 8)):
        calls.clear()
        optimal.search_q2(q, n)
        ranking = ["beta_k_stack"] * 6 if (q, n) == (7, 3) else []
        assert calls == ["_beta4_keys", *ranking, "beta_k_stack"], (q, n)


def _definitions(name):
    """The modules that define a function called name."""
    return [
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]


def test_one_cross_product_matrix():
    # one builder of X and one d = 2 Cramer step on it, both in recursion: the
    # closure's reach levels, the beta_3 cut, every q^2 run-sum and every
    # Cheng-Ye image read them; one inverse table serves every Cramer step, and
    # the float support tables serve the shift grid alone, which adds them
    # into its grid by broadcasting
    from wtdesigns import fieldmath, optimal

    gone = (
        "_universe_levels", "_universe_ids", "_run_sum_totals", "_inverses", "_shift_grid",
        "_closed_form_sums", "_plane_sums", "_fold_tables",
    )
    for name in gone:
        assert not hasattr(optimal, name), name
    for name in ("_cross_products", "_coordinates", "_span_coordinates"):
        assert _definitions(name) == ["recursion"], name
    readers = ("_image_indices", "_beta4_keys", "_theorem1")
    assert set(_references("_cross_products")) == {
        ("recursion", "_span_coordinates"), *(("optimal", name) for name in readers),
    }
    assert set(_references("_coordinates")) == {
        ("recursion", "_span_coordinates"), ("optimal", "_beta4_keys"), ("optimal", "_theorem1"),
    }
    assert _references("_support_table") == [("optimal", "shift_grid_beta")]
    assert set(_references("inverse_table")) == {
        ("recursion", "_span_coordinates"),
        ("recursion", "_coordinates"),
        ("optimal", "_image_keys"),
    }
    inverse = fieldmath.inverse_table(7)
    assert fieldmath.inverse_table(7) is inverse and not inverse.flags.writeable
    assert inverse.tolist() == [0, 1, 4, 5, 2, 3, 6]


def test_minors_run_only_above_d2(monkeypatch, budget):
    # the 2x2-minors path, the one chunks loop of _span_coordinates, is left
    # to d > 2: classify and count read the cross products at d = 2
    from wtdesigns import GeneratorSet, classify, count_recursive, recursion

    built = []

    def spy(cols, q, real=recursion._cross_products):
        built.append(cols.shape)
        return real(cols, q)

    def minors(calls):
        return [ref for ref in calls if ref[:2] == ("recursion", "_span_coordinates")]

    monkeypatch.setattr(recursion, "_cross_products", spy)
    calls = budget(2**19)
    classify(GeneratorSet(7, [[1, 3], [2, 5], [1, 2]]))
    count_recursive(5, 4)
    assert not minors(calls) and [shape[2] for shape in built] == [2, 2]
    built.clear()
    classify(GeneratorSet(5, [[1, 1, 1], [1, 2, 3]]))
    assert minors(calls) == [("recursion", "_span_coordinates", 10, [10])] and not built


def test_one_zero_test():
    # beta_3 = 0 means an integer total of 0: no zero tolerance is left, and
    # neither theorem 2 nor the catalog reads the float grid
    assert _references("_ZERO_TOL") == []
    readers = _references("shift_grid_beta")
    assert ("optimal", "_theorem2") not in readers
    assert not [ref for ref in readers if ref[0] == "catalog"]


def test_one_beta3_path():
    # every beta_3 cut and zero set, the search's included, grows its shift
    # vectors on the exact triple totals; the q^m integer grid builder is gone
    from wtdesigns import optimal

    assert not hasattr(optimal, "_triple_totals")
    assert set(_references("_triple_survivors")) == {
        ("optimal", "search_shifts"), ("optimal", "_theorem2"),
        ("catalog", "_reproduce_q2"), ("catalog", "_reproduce_example7"),
    }
    assert _references("_beta3_band") == [("optimal", "search_shifts")]
    # the survivors are shift vectors: no caller decodes a flat index, and the
    # catalog unravels only the argmax of its two info-matrix differences
    assert _references("ravel_multi_index") == []
    assert not [ref for ref in _references("flat") if ref[0] == "optimal"]
    assert _references("unravel_index") == [
        ("catalog", "_reproduce_info_d"), ("catalog", "_reproduce_info_compare"),
    ]
    # one solver serves the closure's reach levels and the triples of any d: at
    # d = 2 Cramer's rule on the cross products, above it on the 2x2 minors
    assert set(_references("_span_coordinates")) == {
        ("recursion", "_reach_levels"), ("optimal", "_triple_survivors"),
    }


def test_one_williams_level_map():
    # the table is read by designs alone: _member_stacks maps stacks and
    # designs.williams single designs, both through williams_levels
    assert {module for module, _ in _references("williams_table")} == {"designs"}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "designs":
            assert "williams_table" not in _imported_names(path.stem), path.stem


def test_family_best_is_the_printed_record():
    # searchq2 prints every field and nothing else; no full pattern rides along
    from dataclasses import fields

    from wtdesigns.optimal import FamilyBest, SearchReport

    assert not issubclass(FamilyBest, SearchReport)
    assert FamilyBest.__bases__ == (object,)
    assert [f.name for f in fields(FamilyBest)] == [
        "family", "generators", "b", "ties", "evaluations", "decided_k", "beta3", "beta4",
    ]


def test_optimal_writes_no_lazy_state():
    # no property is computed on first read, and no frozen record is written after __init__
    assert "cached_property" not in _imported_names("optimal")
    assert not [ref for ref in _references("cached_property") if ref[0] == "optimal"]
    assert not [ref for ref in _references("__setattr__") if ref[0] == "optimal"]


def test_one_image_path():
    # orbits are labelled from lookup tables alone: the coefficient-stack image
    # builder and its ranker are the tests' oracle, and optimal sorts nothing
    # by lexsort or take_along_axis
    from wtdesigns import optimal

    assert not hasattr(optimal, "_reduced_images") and not hasattr(optimal, "_cell_index")
    for name in ("lexsort", "take_along_axis"):
        assert not [ref for ref in _references(name) if ref[0] == "optimal"], name
    for name in ("_image_indices", "_image_tables"):
        assert _references(name) == [("optimal", "_cell_orbits")], name
    assert _references("_image_keys") == [("optimal", "_image_tables")]


def test_one_cell_order():
    # the cell is built once, by one builder, and searched in its own row
    # order: an orbit's representative is the row that labels it, and only
    # the ties are sorted
    from wtdesigns import optimal

    for name in ("_q2_coefficient_blocks", "_tolist_order"):
        assert not hasattr(optimal, name), name
    for name in ("argsort", "unique", "lexsort"):
        assert not [ref for ref in _references(name) if ref[0] == "optimal"], name
    sweeps = {
        ("optimal", name)
        for name in ("search_q2", "count_recursive", "verify_theorem", "enumerate_q2_generators")
    }
    assert set(_references("_q2_coefficients")) == sweeps
    for name in ("product", "combinations"):
        assert not sweeps & set(_references(name)), name


def test_one_closure_path():
    # reach levels come from cross-product minors and one minimax closure labels
    # every regime: no coefficient target is searched and no per-regime fixpoint is left
    from wtdesigns import recursion

    assert not [ref for ref in _references("searchsorted") if ref[0] == "recursion"]
    for name in ("_saturate", "_lower_types", "_CHUNK_TARGETS", "_coefficient_levels", "_level_table"):
        assert not hasattr(recursion, name), name
    # cached tables are read-only
    from wtdesigns.fieldmath import inverse_table

    assert not hasattr(recursion, "_field_tables")
    assert recursion._subsets(6, 2) is recursion._subsets(6, 2)
    for table in (inverse_table(7), recursion._subsets(6, 2)):
        assert not table.flags.writeable


def test_one_memory_budget():
    # one constant, defined and read in fieldmath alone, sizes every chunked
    # loop through chunks; no module keeps a budget or a sizing of its own
    from wtdesigns import aberration, fieldmath, optimal, recursion

    assert _references("_CHUNK_BYTES") == [("fieldmath", "chunks")]
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {
            target.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and "CHUNK" in target.id
        }
        assert defined == ({"_CHUNK_BYTES"} if path.stem == "fieldmath" else set()), path.stem
        sizings = [  # max(1, budget // item bytes)
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "max"
            and any(isinstance(a, ast.BinOp) and isinstance(a.op, ast.FloorDiv) for a in node.args)
        ]
        assert len(sizings) == (path.stem == "fieldmath"), path.stem
    assert fieldmath._CHUNK_BYTES == 2**19
    assert not hasattr(recursion, "_CHUNK_CELLS")
    assert not hasattr(aberration, "designs_per_chunk") and not hasattr(aberration, "_CHUNK_BYTES")
    assert not hasattr(optimal, "_CHUNK_BYTES") and not hasattr(optimal, "_closed_form_sums")
    for name in ("_CHUNK_CELLS", "designs_per_chunk", "_closed_form_sums"):
        assert _references(name) == [], name
    assert set(_references("chunks")) == {
        ("aberration", "_pattern_by_pairs"),
        ("aberration", "beta_k_stack"),
        ("optimal", "_member_stacks"),
        ("optimal", "_support_table"),
        ("optimal", "_cell_orbits"),
        ("optimal", "_theorem1"),
        ("optimal", "_triple_survivors"),
        ("recursion", "_span_coordinates"),
        ("recursion", "_minimax_closure"),
        ("recursion", "_closure_types"),
    }


def test_two_run_sum_tables():
    # J and T are each built by one cached builder, from the planes; S and I
    # are read from them, not built
    from wtdesigns import optimal

    assert set(_references("_planes")) == {
        ("optimal", "_quad_table"), ("optimal", "_triple_table"),
    }
    for builder in (optimal._quad_table, optimal._triple_table):
        assert hasattr(builder, "cache_info") and hasattr(builder, "__wrapped__")
    assert _references("_centred_levels") == [
        ("optimal", "_quad_table"), ("optimal", "_triple_table"),
    ]


def test_shape_tables_are_built_once(monkeypatch):
    # the pair kernel reads its row-pair indices from _pair_tables, so a warm
    # call does no index arithmetic; a q^2 cell builds its image tables once
    import numpy as np

    from wtdesigns import GeneratorSet, aberration, expand, optimal

    d = expand(GeneratorSet(7, [[2, 2], [1, 3]]))
    aberration._pattern_by_pairs(d)  # warm-up
    calls = []
    for name in ("searchsorted", "divmod"):

        def spy(*args, real=getattr(np, name), name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, name, spy)
    aberration._pattern_by_pairs(d)
    aberration._pattern_by_pairs(d, 4)
    assert calls == []
    optimal._image_tables.cache_clear()
    optimal.search_q2(7, 5)
    optimal.search_q2(7, 5)
    assert optimal._image_tables.cache_info().misses == 1
