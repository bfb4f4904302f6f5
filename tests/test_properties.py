"""Property-based tests (hypothesis) for core data structures and invariants."""

import string

from hypothesis import example, given, settings, strategies as st

from repro.apispec import SyntheticApiConfig, generate_synthetic_api
from repro.graph import (
    SignatureGraph,
    registry_from_dict,
    registry_to_dict,
    type_from_string,
    type_to_string,
)
from repro.jungloids import (
    DEFAULT_COST_MODEL,
    Jungloid,
    downcast,
    instance_call,
    widening,
)
from repro.minijava.ast import Position
from repro.mining import ExampleJungloid, generalize_examples, widening_chain
from repro.robustness import Deadline, ManualClock
from repro.search import (
    EnumerationReport,
    GraphSearch,
    distances_to,
    enumerate_paths,
    kernel_enumerate_paths,
    package_crossings,
    rank,
    rank_key,
    reference_solve,
)
from repro.typesystem import (
    VOID,
    Method,
    QualifiedName,
    TypeRegistry,
    named,
    package_distance,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

identifier = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
package_name = st.lists(identifier, min_size=0, max_size=4).map(".".join)
class_name = st.text(alphabet=string.ascii_uppercase, min_size=1, max_size=4)


@st.composite
def linear_hierarchies(draw):
    """A registry with a random linear class chain t.C0 <: t.C1 <: ..."""
    depth = draw(st.integers(min_value=2, max_value=7))
    registry = TypeRegistry()
    names = [f"t.C{i}" for i in range(depth)]
    registry.declare(names[-1])
    for i in reversed(range(depth - 1)):
        registry.declare(names[i], superclass=names[i + 1])
    return registry, names


@st.composite
def chain_jungloids(draw):
    """A well-typed jungloid over a random type chain, with widenings."""
    length = draw(st.integers(min_value=1, max_value=6))
    types = [named(f"j.T{i}") for i in range(length + 1)]
    steps = []
    for i in range(length):
        steps.append(instance_call(Method(types[i], f"m{i}", types[i + 1]))[0])
        if draw(st.booleans()):
            # Insert an identity-ish widening hop through a superclass.
            sup = named(f"j.S{i}")
            steps.append(widening(types[i + 1], sup))
            steps.append(
                instance_call(Method(sup, f"back{i}", types[i + 1]))[0]
            )
    return Jungloid.from_iterable(steps)


# ----------------------------------------------------------------------
# Names and packages
# ----------------------------------------------------------------------


class TestNameProperties:
    @given(package_name, class_name)
    def test_qualified_name_roundtrip(self, pkg, simple):
        dotted = f"{pkg}.{simple}" if pkg else simple
        qn = QualifiedName.parse(dotted)
        assert qn.dotted == dotted

    @given(package_name, package_name)
    def test_package_distance_symmetric(self, a, b):
        assert package_distance(a, b) == package_distance(b, a)

    @given(package_name, package_name)
    def test_package_distance_identity(self, a, b):
        assert (package_distance(a, b) == 0) == (a == b)

    @given(package_name, package_name, package_name)
    def test_package_distance_triangle(self, a, b, c):
        assert package_distance(a, c) <= package_distance(a, b) + package_distance(b, c)


# ----------------------------------------------------------------------
# Types
# ----------------------------------------------------------------------


class TestTypeStringProperties:
    @given(
        st.sampled_from(["int", "boolean", "void", "a.B", "x.y.Zed"]),
        st.integers(min_value=0, max_value=3),
    )
    def test_type_string_roundtrip(self, base, dims):
        if base == "void" and dims:
            return
        text = base + "[]" * dims
        assert type_to_string(type_from_string(text)) == text


# ----------------------------------------------------------------------
# Hierarchy
# ----------------------------------------------------------------------


class TestHierarchyProperties:
    @given(linear_hierarchies(), st.data())
    def test_subtype_transitive_on_chain(self, rh, data):
        registry, names = rh
        i = data.draw(st.integers(min_value=0, max_value=len(names) - 1))
        j = data.draw(st.integers(min_value=0, max_value=len(names) - 1))
        sub, sup = named(names[min(i, j)]), named(names[max(i, j)])
        assert registry.is_subtype(sub, sup)

    @given(linear_hierarchies(), st.data())
    def test_widening_chain_composes(self, rh, data):
        registry, names = rh
        i = data.draw(st.integers(min_value=0, max_value=len(names) - 1))
        j = data.draw(st.integers(min_value=i, max_value=len(names) - 1))
        chain = widening_chain(registry, named(names[i]), named(names[j]))
        assert chain is not None
        assert len(chain) == j - i
        if chain:
            assert chain[0].input_type == named(names[i])
            assert chain[-1].output_type == named(names[j])
            for a, b in zip(chain, chain[1:]):
                assert a.output_type == b.input_type

    @given(linear_hierarchies())
    def test_depth_decreases_up_the_chain(self, rh):
        registry, names = rh
        depths = [registry.depth(named(n)) for n in names]
        assert depths == sorted(depths, reverse=True)


# ----------------------------------------------------------------------
# Jungloids
# ----------------------------------------------------------------------


class TestJungloidProperties:
    @given(chain_jungloids())
    def test_composition_types_line_up(self, j):
        for a, b in zip(j.steps, j.steps[1:]):
            assert a.output_type == b.input_type

    @given(chain_jungloids())
    def test_length_counts_non_widening(self, j):
        assert j.length == sum(1 for s in j.steps if not s.is_widening)
        assert j.length <= len(j)

    @given(chain_jungloids())
    def test_suffixes_are_suffixes(self, j):
        for s in j.suffixes():
            assert j.steps[-len(s):] == s.steps
            assert s.output_type == j.output_type

    @given(chain_jungloids(), chain_jungloids())
    def test_compose_cost_additive(self, a, b):
        if a.output_type != b.input_type:
            return
        combined = a.compose(b)
        assert DEFAULT_COST_MODEL.cost(combined) == DEFAULT_COST_MODEL.cost(
            a
        ) + DEFAULT_COST_MODEL.cost(b)

    @given(chain_jungloids())
    def test_crossings_nonnegative(self, j):
        assert package_crossings(j) >= 0

    @given(chain_jungloids())
    def test_render_deterministic(self, j):
        assert j.render_expression("x") == j.render_expression("x")


# ----------------------------------------------------------------------
# Generalization
# ----------------------------------------------------------------------


@st.composite
def example_sets(draw):
    """Random example jungloids over a small member/caste vocabulary."""
    obj = named("java.lang.Object")
    owners = [named(f"g.O{i}") for i in range(3)]
    methods = [
        instance_call(Method(owners[i], f"m{i}{k}", owners[(i + 1) % 3]))[0]
        for i in range(3)
        for k in range(2)
    ]
    to_obj = [instance_call(Method(owners[i], f"get{i}", obj))[0] for i in range(3)]
    casts = [downcast(obj, named(f"g.C{i}")) for i in range(2)]
    examples = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        n = draw(st.integers(min_value=0, max_value=3))
        start = draw(st.integers(min_value=0, max_value=2))
        steps = []
        current = start
        for _ in range(n):
            m = draw(st.sampled_from([s for s in methods if s.input_type == owners[current]]))
            steps.append(m)
            current = (current + 1) % 3
        steps.append(to_obj[current])
        steps.append(draw(st.sampled_from(casts)))
        examples.append(
            ExampleJungloid(
                jungloid=Jungloid.from_iterable(steps),
                source="prop.mj",
                method_name="m",
                cast_position=Position(1, 1),
            )
        )
    return examples


class TestGeneralizationProperties:
    @settings(max_examples=60)
    @given(example_sets())
    def test_suffix_invariants(self, examples):
        for g in generalize_examples(examples):
            full = g.example.jungloid
            # (1) a true suffix;
            assert full.steps[-len(g.suffix):] == g.suffix.steps
            # (2) still ends with the same cast;
            assert g.suffix.steps[-1] == full.steps[-1]
            # (3) never a bare cast when a pre-step exists.
            if len(full) > 1:
                assert len(g.suffix) >= 2

    @settings(max_examples=60)
    @given(example_sets())
    def test_distinguishing_property(self, examples):
        """No retained pre-cast suffix is shared by a different cast."""
        gens = generalize_examples(examples)
        pre = [(g.suffix.steps[:-1], str(g.suffix.output_type)) for g in gens]
        full_pre = [
            (g.example.jungloid.steps[:-1], str(g.suffix.output_type)) for g in gens
        ]
        for steps, cast in pre:
            if not steps:
                continue
            for other_steps, other_cast in full_pre:
                if other_cast != cast and len(other_steps) >= len(steps):
                    if other_steps[-len(steps):] == steps:
                        # A conflicting example shares this suffix: the
                        # suffix must then be the example's full pre-cast
                        # chain (nothing shorter could distinguish).
                        matching = [
                            g
                            for g in gens
                            if g.suffix.steps[:-1] == steps
                            and str(g.suffix.output_type) == cast
                        ]
                        assert any(
                            g.suffix.steps == g.example.jungloid.steps for g in matching
                        )


# ----------------------------------------------------------------------
# Search
# ----------------------------------------------------------------------


class TestSearchProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_search_invariants_on_synthetic_apis(self, seed):
        registry = generate_synthetic_api(
            SyntheticApiConfig(seed=seed, packages=3, classes_per_package=6, interfaces_per_package=1)
        )
        graph = SignatureGraph.from_registry(registry)
        search = GraphSearch(graph)
        t_in = registry.lookup("synth.p0.C0")
        t_out = registry.lookup("synth.p2.C5")
        results = search.solve(t_in, t_out)
        m = search.shortest_cost(t_in, t_out)
        keys = [rank_key(registry, j) for j in results]
        assert keys == sorted(keys)  # ranked best-first
        for j in results:
            assert j.solves(t_in, t_out)  # Definition 4
            if m is not None:
                assert DEFAULT_COST_MODEL.cost(j) <= m + 1  # the window

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_distances_lower_bound_enumeration(self, seed):
        registry = generate_synthetic_api(
            SyntheticApiConfig(seed=seed, packages=2, classes_per_package=5, interfaces_per_package=1)
        )
        graph = SignatureGraph.from_registry(registry)
        t_in = registry.lookup("synth.p0.C0")
        t_out = registry.lookup("synth.p1.C4")
        dist = distances_to(graph, t_out)
        if t_in not in dist:
            return
        m = dist[t_in]
        paths = list(enumerate_paths(graph, t_in, t_out, max_cost=m, dist=dist, max_paths=50))
        for path in paths:
            cost = sum(0 if e.is_widening else 1 for e in path)
            assert cost >= 0
        # At least one path achieves a cost within the bound.
        assert paths

    # Differential oracle: the kernel-backed engine against the plain
    # recursive search. Derandomized, so every run draws the same
    # examples; the recorded seeds below always run first.
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=5),
        st.sampled_from([0.25, 25.0, 105.0, 60_000.0]),
    )
    @example(seed=0, target_index=5, budget_ms=105.0)
    @example(seed=7, target_index=0, budget_ms=25.0)
    @example(seed=2005, target_index=3, budget_ms=105.0)
    @example(seed=9_999, target_index=1, budget_ms=60_000.0)
    def test_engine_matches_reference_oracle(self, seed, target_index, budget_ms):
        registry = generate_synthetic_api(
            SyntheticApiConfig(seed=seed, packages=3, classes_per_package=6, interfaces_per_package=1)
        )
        graph = SignatureGraph.from_registry(registry)
        search = GraphSearch(graph)
        sources = [registry.lookup("synth.p0.C0"), registry.lookup("synth.p1.C3"), VOID]
        t_out = registry.lookup(f"synth.p2.C{target_index}")
        # Ranked answers: identical texts from identical sources.
        kernel = search.solve_multi(sources, t_out)
        oracle = reference_solve(graph, sources, t_out, search.config, search.cost_model)
        assert [(r.jungloid.render_expression("x"), r.source_type) for r in kernel] == [
            (r.jungloid.render_expression("x"), r.source_type) for r in oracle
        ]
        # Enumerators: the same paths and expansions under a deadline.
        dist = search._distances(t_out)
        for source in sources:
            m = dist.get(source)
            if m is None:
                continue
            ref_report, ker_report = EnumerationReport(), EnumerationReport()
            ref = list(
                enumerate_paths(
                    graph, source, t_out, m + 1,
                    edge_cost=search._edge_cost,
                    deadline=Deadline.after(budget_ms, ManualClock(tick=0.010)),
                    report=ref_report, check_every=1,
                )
            )
            ker = [
                dist.compiled.edges(slots)
                for slots in kernel_enumerate_paths(
                    dist.compiled, source, t_out, m + 1, dist=dist,
                    deadline=Deadline.after(budget_ms, ManualClock(tick=0.010)),
                    report=ker_report, check_every=1,
                )
            ]
            assert ref == ker
            assert ref_report.expansions == ker_report.expansions
            assert ref_report.deadline_expired == ker_report.deadline_expired


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------


class TestSerializationProperties:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_registry_roundtrip_synthetic(self, seed):
        original = generate_synthetic_api(
            SyntheticApiConfig(seed=seed, packages=2, classes_per_package=4)
        )
        restored = registry_from_dict(registry_to_dict(original))
        assert restored.stats() == original.stats()
        for decl in original.all_declarations():
            other = restored.declaration_of(restored.lookup(decl.type.name.dotted))
            assert [m.descriptor() for m in decl.methods] == [
                m.descriptor() for m in other.methods
            ]
