"""qcore: exact q-series arithmetic and identity verification for the
5-core partition function and its two theta-quotient analogs.

The building blocks:

- ``series``: exact truncated power series over Python integers.
- ``products``: Pochhammer factors, Euler products, theta functions, the
  evaluator for sums of quotients of them (chi, the Rogers-Ramanujan
  quotient, products of Pochhammer factors), the three generating
  functions, from their Eisenstein divisor-sum closed forms, and the
  sequences' sign census.
- ``partitions``: the t-core oracle, a lattice-vector search free of
  series arithmetic, and partitions with their hook numbers.
- ``dissection``: residue-class dissections.
- ``registry``: every verified identity, congruence and census claim as
  data; series identities are sums of theta and Euler quotients.
- ``identities``: the uniform evaluator over the registry.
- ``bfile``: OEIS b-file import/export.
- ``cli``: the ``qcore`` command.

The public names below are resolved on first use (PEP 562), so
``import qcore`` loads no submodule and a command loads only the modules
it runs.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("BFileParseError", "first_discrepancy", "format_bfile", "parse_bfile"),
                    "bfile"),
    **dict.fromkeys(("dissect",), "dissection"),
    **dict.fromkeys(("UnknownIdentity", "record_ids", "summarize", "verify", "verify_all",
                     "verify_record"), "identities"),
    **dict.fromkeys(("Partition", "count_t_cores", "t_cores"), "partitions"),
    **dict.fromkeys(("PochhammerFactor", "ThetaSpec", "euler_f", "evaluate_side",
                     "expand_pochhammer", "gen_a5bar", "gen_b5bar", "gen_c5", "phi", "psi",
                     "sign_census", "theta_general"), "products"),
    **dict.fromkeys(("NonUnitConstantTerm", "TruncatedSeries", "first_mismatch"), "series"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
