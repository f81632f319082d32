"""Exact regularity calculus for stable finite graphs and finite groups.

Names resolve on first use (PEP 562): `_SOURCES` maps each public name to
the submodule that defines it, and the first lookup of a name imports that
submodule and caches the name here. So `import stablereg` loads no
submodule, a program loads only the submodules whose names it uses, and
`stablereg.graphs` and the other submodules resolve as attributes too.
"""

from importlib import import_module

_SOURCES = {
    name: module
    for module, names in {
        "errors": "CapacityError InputError PreconditionError StableRegError",
        "graphs": (
            "Graph clique_union complete_graph empty_graph from_edges half_graph mask_of"
            " matching_graph parse_edge_list parse_family perturb to_edge_list vertex_list"
        ),
        "groups": (
            "CosetReport FiniteGroup Subgroup coset_regularity cyclic_group dihedral_group"
            " direct_product normal_subgroups_up_to_index translate_relation"
        ),
        "pairs": (
            "PairVerdict SpecialWitness homogeneity is_almost_good is_excellent is_good_pair"
            " is_good_set is_homogeneous is_special parse_fraction special_witness threshold_sets"
        ),
        "partitions": (
            "ErrorFunction Partition PipelineResult RegularityReport SearchResult"
            " equipartition_refine good_partition_search regularity_pipeline"
            " type_mass_partition verify_regularity"
        ),
        "stability": (
            "Ladder Relation find_relation_ladder graph_relation ladder_exists_scan ladder_index"
            " relation_ladder_index"
        ),
        "typeclasses": (
            "DefinabilityDefect DefinabilityWitnesses HarringtonResult TypeClass TypeSpectrum"
            " definability_witnesses harrington_check patched_rows side_types type_spectrum"
        ),
    }.items()
    for name in names.split()
}
_SUBMODULES = {*_SOURCES.values(), "acceptance", "cli", "config", "rng"}

__all__ = sorted(_SOURCES)


def __getattr__(name: str) -> object:
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
