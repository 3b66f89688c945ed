"""Run one qcore command in this process, traced or with an injected fault.

    python3 perfbench/launcher.py [--trace FILE --request ID]
        [--corrupt FUNC:INDEX] [--crash FUNC] -- <qcore arguments>

The launcher imports qcore, wraps the public entry points of each layer
from the outside and then calls ``qcore.cli.main``; the qcore sources are
not edited.  A wrapped function is swapped in wherever a qcore module holds
a reference to it, including the values of module-level dicts (the table
that maps sequence names to their constructors is one).

With ``--trace`` every call into a layer records a span
``[name, start, end, parent, self_s, attrs]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``self_s`` the span's duration minus
its child spans and minus the time spent describing them.  Spans stay in
memory and are written as one JSON object when the command returns, with
the request id that all of them share.  Layers and span names:

- series: ``series.<method>`` for the TruncatedSeries kernels (mul, div,
  invert, pow) and the cheap operations (add, sub, scale, shift, inflate,
  extract_ap, alternate);
- products: ``products.<constructor>``, with the call's spec and order;
- identities: ``identities.verify`` (with record id and kind),
  ``identities.verify_all``, ``identities.sign_census``;
- registry and dissection: ``registry.sides`` or ``dissection.sides`` for a
  record's recipe callable, by the module that defines it, and
  ``dissection.dissect``;
- partitions: ``partitions.count_t_cores``;
- bfile: ``bfile.format`` and ``bfile.parse``, with the bytes handled;
- cli: ``cli.main``.

``--corrupt gen_b5bar:306`` adds 1 to one coefficient of a constructor's
result; ``--crash euler_f`` makes a constructor raise.  Both exist for the
benchmark's self-test of its correctness gate.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import os
import sys
from time import perf_counter

SERIES_METHODS = ("mul", "div", "invert", "pow",
                  "add", "sub", "scale", "shift", "inflate", "extract_ap", "alternate")
CONSTRUCTORS = ("euler_f", "theta_general", "phi", "psi", "chi", "rr_quotient",
                "expand_pochhammer", "expand_qproduct", "gen_c5", "gen_a5bar", "gen_b5bar")


def replace_everywhere(original, replacement) -> None:
    """Point every reference a qcore module holds to ``original`` at
    ``replacement``: module globals and the values of module-level dicts."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "qcore" or name.startswith("qcore.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement


def _nnz(series) -> int:
    coeffs = series.coeffs
    return len(coeffs) - coeffs.count(0)


def _bits(series) -> int:
    coeffs = series.coeffs
    return max(max(coeffs), -min(coeffs)).bit_length()


def _describe_kernel(method):
    if method == "mul":
        def describe(args, kwargs, result):
            a, b = args[0], args[1]
            order = min(a.order, b.order)
            return {"terms": (order + 1) * min(_nnz(a), _nnz(b)),
                    "bits": max(_bits(a), _bits(b))}
    elif method == "div":
        def describe(args, kwargs, result):
            order = min(args[0].order, args[1].order)
            return {"terms": (order + 1) * _nnz(args[1])}
    elif method == "invert":
        def describe(args, kwargs, result):
            return {"terms": (args[0].order + 1) * _nnz(args[0])}
    elif method == "pow":
        def describe(args, kwargs, result):
            return {"k": args[1] if len(args) > 1 else kwargs["k"]}
    else:
        describe = None
    return describe


def _describe_constructor(fn):
    signature = inspect.signature(fn)

    def describe(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        arguments = dict(bound.arguments)
        order = arguments.pop("order")
        return {"spec": repr(sorted(arguments.items())), "order": order}
    return describe


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent, excluded_s, attrs]
        self.stack = []
        self.describe_s = 0.0

    def wrap(self, name, fn, describe=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if describe is not None:
                span[5] = describe(args, kwargs, result)
                cost = perf_counter() - span[2]
                self.describe_s += cost
                if parent >= 0:
                    spans[parent][4] += cost
            return result
        return traced

    def install(self) -> None:
        from qcore import bfile, cli, dissection, identities, partitions, products, series

        cls = series.TruncatedSeries
        for method in SERIES_METHODS:
            if hasattr(cls, method):
                setattr(cls, method, self.wrap(f"series.{method}", getattr(cls, method),
                                               _describe_kernel(method)))
        for fname in CONSTRUCTORS:
            fn = getattr(products, fname, None)
            if fn is not None:
                replace_everywhere(fn, self.wrap(f"products.{fname}", fn,
                                                 _describe_constructor(fn)))

        def verify_attrs(args, kwargs, report):
            return {"id": report.id, "kind": report.kind}

        for module, fname, span, describe in (
            (identities, "verify", "identities.verify", verify_attrs),
            (identities, "verify_all", "identities.verify_all", None),
            (identities, "sign_census", "identities.sign_census", None),
            (dissection, "dissect", "dissection.dissect", None),
            (partitions, "count_t_cores", "partitions.count_t_cores", None),
            (bfile, "format_bfile", "bfile.format",
             lambda args, kwargs, text: {"bytes": len(text)}),
            (bfile, "parse_bfile", "bfile.parse",
             lambda args, kwargs, parsed: {"bytes": len(args[0])}),
            (cli, "main", "cli.main", None),
        ):
            fn = getattr(module, fname, None)
            if fn is not None:
                replace_everywhere(fn, self.wrap(span, fn, describe))

        registry = getattr(identities, "REGISTRY", {})
        for rid, record in list(registry.items()):
            sides = getattr(record, "sides", None)
            if callable(sides) and dataclasses.is_dataclass(record):
                layer = sides.__module__.rsplit(".", 1)[-1]
                layer = "dissection" if layer == "dissection" else "registry"
                registry[rid] = dataclasses.replace(
                    record, sides=self.wrap(f"{layer}.sides", sides))

    def write(self, path: str, request: str) -> None:
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, excluded, attrs in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        rows = [[name, start, end, parent, end - start - child_s[i] - excluded, attrs]
                for i, (name, start, end, parent, excluded, attrs) in enumerate(self.spans)]
        try:
            sys.stdout.flush()
            stdout_bytes = os.lseek(sys.stdout.fileno(), 0, os.SEEK_CUR)
        except OSError:
            stdout_bytes = None
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"request": request, "stdout_bytes": stdout_bytes,
                       "describe_s": self.describe_s,
                       "fields": ["name", "start", "end", "parent", "self_s", "attrs"],
                       "spans": rows}, fh)


def _corrupt(fn, index):
    @functools.wraps(fn)
    def corrupted(*args, **kwargs):
        series = fn(*args, **kwargs)
        if index > series.order:
            return series
        coeffs = list(series.coeffs)
        coeffs[index] += 1
        return type(series)(coeffs, series.order)
    return corrupted


def _crash(fn):
    @functools.wraps(fn)
    def crashing(*args, **kwargs):
        raise RuntimeError(f"injected crash in {fn.__name__}")
    return crashing


def main() -> None:
    argv = sys.argv[1:]
    if "--" not in argv:
        sys.exit("usage: launcher.py [options] -- <qcore arguments>")
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="launcher.py")
    parser.add_argument("--trace", metavar="FILE")
    parser.add_argument("--request", default="0")
    parser.add_argument("--corrupt", metavar="FUNC:INDEX")
    parser.add_argument("--crash", metavar="FUNC")
    opts = parser.parse_args(argv[:split])

    import qcore.cli
    from qcore import products

    if opts.corrupt:
        fname, index = opts.corrupt.split(":")
        fn = getattr(products, fname)
        replace_everywhere(fn, _corrupt(fn, int(index)))
    if opts.crash:
        fn = getattr(products, opts.crash)
        replace_everywhere(fn, _crash(fn))
    tracer = None
    if opts.trace:
        tracer = Tracer()
        tracer.install()
    try:
        code = qcore.cli.main(argv[split + 1:])
    finally:
        if tracer is not None:
            tracer.write(opts.trace, opts.request)
    sys.exit(code)


if __name__ == "__main__":
    main()
