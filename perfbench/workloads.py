"""The three benchmark workloads, generated from a seed.

A request is one user-visible operation: one ``qcore`` invocation, or two
for a b-file round trip (export, then check).  Every request runs in fresh
processes, so each pass starts with cold caches, as a ``qcore`` user does.
Load is a closed loop: one client, one request at a time.

- ``verify-all``: ``qcore verify all -N 1500 --jobs 1``.  The only workload
  where the identity evaluator does real work and where sequences are reused
  across records at several orders (b5 at N, 5N+2 and 25N+22).
- ``expand-sequences``: ``qcore expand`` of c5, a5bar and b5bar at
  N=30000, three processes.  One large ``pow`` and one division by a sparse
  theta each; nothing is reused, so cache changes should not move it while
  kernel changes should.
- ``cli-mix``: a seeded stream of small requests.  Each block of 20 holds
  exactly 7 expand, 6 verify, 3 census, 2 oracle, 1 b-file round trip and
  1 malformed request (a negative order or a bad series name, of the forms
  that exit 2 as documented), shuffled; the fixed mix keeps blocks comparable.
  Latency here is mostly interpreter start, import and CLI dispatch plus
  small-order kernels, which the two large workloads skip.

The measured stream holds no request that fails at the seed program, so a
failure in it is a regression.  The requests that hit the program's two
known defects are kept apart in ``KNOWN_DEFECTS``: ``verify cor.census`` at
an order not aligned with its density-3/10 progressions reports a mismatch,
and some malformed input exits 1 with a traceback instead of exiting 2.
The runner sends them after every cli-mix run, untimed, and reports whether
each still fails, without counting them in the result.

Names and orders of expansions come from fixed pools so that every
coefficient list the benchmark reads has a recorded digest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

WORKLOADS = ("verify-all", "expand-sequences", "cli-mix")

# Orders small enough for about ten passes in a 35-second run: on a shared
# 2-core host the time of identical work drifts by up to 1.7x, and the
# median of many short passes is steadier than one or three long ones.
VERIFY_ALL_ORDER = 1500
SEQUENCES = ("c5", "a5bar", "b5bar")
BIG_ORDER = 30000

# The documented name grammar: c5 | a5bar | b5bar | f[:J] | R[:J] |
# phi[:SIGN[:J]] | psi[:SIGN[:J]] | chi[:SIGN[:J]] | prod:SPEC.
EXPAND_NAMES = (
    "c5", "a5bar", "b5bar",
    "f", "f:2", "f:5",
    "R", "R:5",
    "phi", "phi:+", "phi:-:5",
    "psi", "psi:+:2", "psi:-:5",
    "chi", "chi:+:3",
    "prod:1/1^-1", "prod:1/5,4/5", "prod:-1/2,1/1^2", "prod:1/1^-3,5/5^5",
)
EXPAND_ORDERS = (50, 100, 200, 500, 1000, 2000)
BFILE_NAMES = ("c5", "a5bar", "b5bar", "f", "phi", "psi:+:2", "prod:1/1^-1")
CENSUS_ORDERS = (500, 1000, 2000, 5000)
VERIFY_ORDERS = (100, 600)
VERIFY_STRATA = 6
ORACLE_MAX_N = 36
ORACLE_TS = (2, 3, 4, 5, 6, 7)

BLOCK_MIX = (("expand", 7), ("verify", 6), ("census", 3), ("oracle", 2),
             ("bfile", 1), ("malformed", 1))

# What fails at the seed program (see KNOWN_DEFECTS): a record that
# mismatches at most orders, and the names whose expansion at a negative
# order exits 1 with a traceback.
DEFECT_RECORDS = ("cor.census",)
NEGATIVE_ORDER_DEFECTS = ("a5bar", "phi", "phi:+", "phi:-:5", "prod:1/1^-1", "prod:1/5,4/5",
                          "prod:-1/2,1/1^2", "prod:1/1^-3,5/5^5")
BAD_NAMES = ("no_such_series", "f:x", "phi:*", "prod:")

# Written by ``bfile export`` and read back by ``bfile check``; the runner
# puts its scratch directory in place of SCRATCH.
SCRATCH = "@TMP@"
BFILE_PATH = f"{SCRATCH}/bfile.txt"


@dataclass(frozen=True)
class Request:
    """One operation: its kind, the qcore argument lists it runs, and the
    parameters the correctness gate needs."""

    kind: str
    argvs: Tuple[Tuple[str, ...], ...]
    params: dict = field(default_factory=dict, compare=False)

    @property
    def label(self) -> str:
        return " && ".join("qcore " + " ".join(argv) for argv in self.argvs)


def verify_all_pass() -> List[Request]:
    argv = ("verify", "all", "-N", str(VERIFY_ALL_ORDER), "--jobs", "1")
    return [Request("verify-all", (argv,), {"order": VERIFY_ALL_ORDER})]


def expand_sequences_pass() -> List[Request]:
    return [Request("expand", (("expand", name, str(BIG_ORDER)),),
                    {"name": name, "order": BIG_ORDER})
            for name in SEQUENCES]


class Dealer:
    """Seeded draws.  ``deal`` takes a pool's items in shuffled rounds, each
    item once a round, so that every run holds each name, record and order
    about equally often: the cost of a run's requests then varies less from
    seed to seed than with independent draws, while the order of requests
    and the pairing of names with orders still change."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._left: dict = {}

    def deal(self, pool: str, items):
        left = self._left.setdefault(pool, [])
        if not left:
            left.extend(items)
            self.rng.shuffle(left)
        return left.pop()


def _expand(d: Dealer) -> Request:
    name = d.deal("expand.name", EXPAND_NAMES)
    order = d.deal("expand.order", EXPAND_ORDERS)
    style = d.rng.randrange(3)
    if style == 0:
        argv = ("expand", name, str(order))
    elif style == 1:
        argv = ("expand", name, "-N", str(order))
    else:
        argv = ("expand", name, "-N", str(order), "--format", "json")
    return Request("expand", (argv,), {"name": name, "order": order})


def _verify(d: Dealer, record_ids) -> Request:
    rid = d.deal("verify.id", [r for r in record_ids if r not in DEFECT_RECORDS])
    # One of VERIFY_STRATA equal slices of VERIFY_ORDERS, then an order in it.
    low, high = VERIFY_ORDERS
    k = d.deal("verify.stratum", range(VERIFY_STRATA))
    width = (high - low + 1) / VERIFY_STRATA
    order = d.rng.randint(low + round(k * width), low + round((k + 1) * width) - 1)
    return Request("verify", (("verify", rid, "-N", str(order)),),
                   {"id": rid, "order": order})


def _census(d: Dealer) -> Request:
    name = d.deal("census.name", SEQUENCES)
    order = d.deal("census.order", CENSUS_ORDERS)
    return Request("census", (("census", name, "-N", str(order)),),
                   {"name": name, "order": order})


def _oracle(rng: random.Random) -> Request:
    n = rng.randint(0, ORACLE_MAX_N)
    t = rng.choice(ORACLE_TS)
    return Request("oracle", (("oracle", str(n), str(t)),), {"n": n, "t": t})


def _bfile(d: Dealer) -> Request:
    name = d.deal("bfile.name", BFILE_NAMES)
    order = d.deal("bfile.order", EXPAND_ORDERS)
    export = ("bfile", "export", name, BFILE_PATH, "-N", str(order))
    check = ("bfile", "check", name, BFILE_PATH, "-N", str(order))
    return Request("bfile", (export, check), {"name": name, "order": order})


def _malformed(rng: random.Random) -> Request:
    """Bad input whose documented answer is exit code 2 (usage error)."""
    names = [n for n in EXPAND_NAMES if n not in NEGATIVE_ORDER_DEFECTS]
    argv = rng.choice((
        ("expand", rng.choice(names), "-N", str(-rng.randint(1, 50))),
        ("expand", rng.choice(BAD_NAMES), str(rng.choice(EXPAND_ORDERS))),
    ))
    return Request("malformed", (argv,))


# Requests that fail at the seed program (ROADMAP item 4), one per failing
# form: malformed input that exits 1 with a traceback, and cor.census at an
# unaligned order (N=101 gives zero=30/101, below the 3/10 bound).
KNOWN_DEFECTS = (
    Request("malformed", (("expand", "a5bar", "-N", "-5"),)),
    Request("malformed", (("expand", "phi", "-N", "-5"),)),
    Request("malformed", (("expand", "prod:1/5,4/5", "-N", "-5"),)),
    Request("malformed", (("verify", "lemma.A4B", "-N", "-5"),)),
    Request("malformed", (("oracle", "5", "0"),)),
    Request("malformed", (("oracle", "-1", "5"),)),
    Request("malformed", (("census", "b5bar", "-N", "0"),)),
    Request("verify", (("verify", "cor.census", "-N", "101"),),
            {"id": "cor.census", "order": 101}),
)


def cli_mix_blocks(seed: int, record_ids) -> Iterator[List[Request]]:
    """Endless seeded stream of 20-request blocks with the fixed mix."""
    d = Dealer(seed)
    makers = {
        "expand": lambda: _expand(d),
        "verify": lambda: _verify(d, record_ids),
        "census": lambda: _census(d),
        "oracle": lambda: _oracle(d.rng),
        "bfile": lambda: _bfile(d),
        "malformed": lambda: _malformed(d.rng),
    }
    while True:
        block = [makers[kind]() for kind, count in BLOCK_MIX for _ in range(count)]
        d.rng.shuffle(block)
        yield block
