"""carrychain: exact arithmetic for the carries / riffle-shuffle descent
Markov chain and the Eulerian-idempotent algebra behind its spectrum.

Every public name is looked up in the submodule that defines it when it is
first asked for (a PEP 562 module ``__getattr__``), so ``import carrychain``
loads no submodule, and the closed forms (``combinat``, ``eulerian``,
``matrix``) never load numpy.  Only the oracle and the Monte-Carlo twins
(``oracle``, ``rng``, ``simulate``) do."""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it, in ``__all__`` order
_EXPORTS = {
    "AmazingMatrix": "matrix",
    "BasisMatrix": "eulerian",
    "BudgetError": "combinat",
    "Composition": "combinat",
    "DescentPolynomial": "matrix",
    "EmpiricalMatrix": "simulate",
    "EulerianElement": "eulerian",
    "GroupAlgebraElement": "oracle",
    "LumpingViolation": "combinat",
    "Permutation": "combinat",
    "Report": "matrix",
    "ShuffleMultiset": "oracle",
    "SimulationConfig": "simulate",
    "SWordExpansion": "eulerian",
    "TransitionMismatch": "combinat",
    "amazing_entry": "matrix",
    "amazing_matrix": "matrix",
    "binomial": "combinat",
    "compositions": "combinat",
    "descent_polynomial": "matrix",
    "enumerate_b_shuffles": "oracle",
    "eulerian_numbers": "combinat",
    "expansion_to_group": "oracle",
    "foulkes_determinant": "matrix",
    "foulkes_matrix": "eulerian",
    "group_identity": "oracle",
    "group_product": "oracle",
    "idempotent_group": "oracle",
    "idempotent_s_expansion": "eulerian",
    "internal_product": "eulerian",
    "oracle_descent_polynomial": "oracle",
    "oracle_transition_matrix": "oracle",
    "shuffle_element_from_basis": "oracle",
    "simulate_carries": "simulate",
    "simulate_shuffle_chain": "simulate",
    "spow_element": "eulerian",
    "superfactorial": "combinat",
    "verify_multiplicativity": "matrix",
    "verify_spectrum": "matrix",
    "verify_stationary": "matrix",
    "worpitzky_matrix": "eulerian",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # Looked up on every access and never stored in globals(): a function
    # rebound in its submodule (a monkeypatch, a tracing wrapper) is what the
    # package returns, and putting the original back puts it back here too.
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
