"""Degree-preserving double hyperarc shuffles on directed hypergraphs.

Sampling from the 16 spaces (features s/d/m allowed or not, stub- or
vertex-labeled), plus exhaustive enumeration and exact Markov chain
verification at desk scale.

Loading rule: importing the package loads only :mod:`.hypergraph`, the
data model every layer needs.  Each other public name, and each submodule
(``hypershuffle.run_chain``, ``hypershuffle.validation``), loads its
defining module on first use, through the module ``__getattr__``
(PEP 562).  ``_PUBLIC`` lists the public names by defining module, and
``__all__`` and ``dir()`` come from it.  Names are looked up in their
defining module on every access, never copied here, so a name patched
there is the name seen here.
"""

from importlib import import_module

__version__ = "0.1.0"

_PUBLIC = {
    "hypergraph": (
        "DegreeSequence",
        "DirectedHypergraph",
        "FeatureReport",
        "HypergraphError",
        "SpaceSpec",
        "arc",
        "canonical_form",
        "canonicalize",
        "classify_features",
        "degree_sequence",
        "hypergraph",
        "in_space",
        "multiset",
    ),
    "dhg": ("DhgParseError", "parse_dhg", "serialize_dhg", "split_dhg_stream"),
    "shuffle": (
        "ChainConfig",
        "ChainConfigError",
        "ChainResult",
        "ProposalError",
        "ShuffleProposal",
        "acceptance_probability",
        "apply_shuffle",
        "propose",
        "proposal_probability",
        "run_chain",
        "spawn_seed",
        "step",
    ),
    "enumeration": (
        "EnumerationLimitError",
        "count_stub_realizations",
        "enumerate_stub_space",
        "enumerate_vertex_space",
        "stub_state_to_hypergraph",
    ),
    "chains": (
        "ChainGraph",
        "StateSpaceLimitError",
        "build_stub_chain",
        "build_vertex_chain",
        "build_vertex_chain_lumped",
        "check_aperiodic",
        "check_doubly_stochastic",
        "check_regular",
        "check_strongly_connected",
        "is_exactly_uniform_stationary",
        "stationary_distribution",
        "tv_curve",
    ),
    "replicas": ("sample_replicas",),
    "validation": (
        "SampleOutsideSpaceError",
        "UniformityReport",
        "check_sm_equivalence",
        "map_to_bipartite",
        "uniformity_test",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
_SUBMODULES = (*_PUBLIC, "cli", "reproduce")

__all__ = sorted(_HOME)

# Eager: importing the submodule binds it as ``hypershuffle.hypergraph``,
# and its ``hypergraph`` function then takes the name over for good.
from . import hypergraph as _hypergraph  # noqa: E402

globals().update((name, getattr(_hypergraph, name)) for name in _PUBLIC["hypergraph"])


def __getattr__(name: str):
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
