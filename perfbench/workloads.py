"""The three revise-then-query workloads: inputs, timed loop, verification.

Each workload is a fixed, seeded stream of revise and query operations.
``generate`` builds every input before anything is timed, ``setup`` is
what a user pays before the first request (timed as ``setup_s``),
``run`` is the timed closed loop, and ``verify`` checks every output
after the clock has stopped, turning each mismatch into a failed
operation.

Query answers are checked against an evaluation of the query on the
result's own model masks.  Model sets are checked against ground truth:
the planted masks of the hardness families, the paper's Fig. 2
containments and the success postulate, a replay of the chain stream on
the planted carriers, and an inline replay of every service request.
"""

from __future__ import annotations

import concurrent.futures
import os
import random
import time
from collections import Counter
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.hardness import clause_family, sparse_family
from repro.logic.bitmodels import BitAlphabet, BitModelSet
from repro.logic.formula import Var, lnot, lor
from repro.logic.parser import parse
from repro.logic.printer import to_str
from repro.logic.theory import Theory
from repro.revision.batch import BatchCache, revise_many
from repro.revision.registry import get_operator

OPERATORS = ("dalal", "satoh", "weber", "forbus", "winslett", "borgida")

#: Fig. 2 of the paper: ``left ⊆ right`` holds for every pair (T, P).
FIG2_ARROWS = (
    ("dalal", "satoh"),
    ("dalal", "forbus"),
    ("dalal", "weber"),
    ("forbus", "winslett"),
    ("satoh", "winslett"),
    ("satoh", "weber"),
    ("borgida", "winslett"),
)



def first_line(text: Optional[str]) -> str:
    return (text or "").strip().splitlines()[0][:160] if text else ""


class Query:
    """A clause or cube over a result alphabet, with its own evaluator."""

    __slots__ = ("text", "formula", "literals", "conjunctive")

    def __init__(self, letters: Sequence[str], literals, conjunctive: bool):
        self.literals = tuple(literals)
        self.conjunctive = conjunctive
        joiner = " & " if conjunctive else " | "
        self.text = joiner.join(
            ("" if positive else "~") + letters[bit]
            for bit, positive in self.literals
        )
        self.formula = parse(self.text)

    def holds_in(self, mask: int) -> bool:
        values = (((mask >> bit) & 1) == positive
                  for bit, positive in self.literals)
        return all(values) if self.conjunctive else any(values)

    def expected(self, masks: Iterable[int]) -> bool:
        """``masks |= query``; vacuously true on an empty set."""
        return all(self.holds_in(mask) for mask in masks)


def make_query(pattern: random.Random, content: random.Random,
               letters: Sequence[str]) -> Query:
    """A query whose shape comes from ``pattern`` and whose letters and
    signs come from ``content``."""
    width = pattern.choice((1, 2, 2, 3))
    conjunctive = pattern.random() < 0.5
    bits = content.sample(range(len(letters)), width)
    literals = [(bit, content.random() < 0.5) for bit in bits]
    return Query(letters, literals, conjunctive)


#: Seed of the request patterns.  Which KB, chain step, operator and
#: request kind comes next is part of a workload's definition and the
#: same on every run; ``--seed`` draws the formulas and the queries, so
#: runs on different seeds do the same kind of work on different inputs.
PATTERN_SEED = 1995


def with_free_letters(formula, letters: Sequence[str], free: int):
    """``formula`` plus a tautology per free letter, so the alphabet the
    engine derives from the text is the whole planted alphabet."""
    tautologies = [lor(Var(name), lnot(Var(name))) for name in letters[:free]]
    return Theory([formula] + tautologies)


def masks_of(result) -> FrozenSet[int]:
    return frozenset(result.bit_model_set.iter_masks())


class Outcome:
    """What the timed loop did: per-revision samples and query blocks."""

    def __init__(self) -> None:
        #: ``[latency_s, ok]`` per revision, in the order sent.
        self.revisions: List[List] = []
        self.queries_attempted = 0
        self.queries_ok = 0
        self.query_time_s = 0.0
        self.failures: Counter = Counter()
        #: Operations whose output ``verify`` checked.
        self.verified = 0

    def add_revision(self, latency_s: float) -> int:
        self.revisions.append([latency_s, True])
        return len(self.revisions) - 1

    def checked_revision(self, index: int, error: Optional[str] = None,
                         status: str = "mismatch") -> None:
        """Record revision ``index`` as verified, failed when ``error``."""
        self.verified += 1
        if error is not None:
            self.revisions[index][1] = False
            self.failures[f"{status}: {first_line(error)}"] += 1

    def checked_queries(self, queries: Sequence["Query"], answers,
                        masks: Optional[FrozenSet[int]]) -> None:
        """Check a query block against the masks of its result; with
        ``masks`` None (the revision failed) every answer fails too."""
        correct = 0
        if masks is not None:
            correct = sum(answer == query.expected(masks)
                          for query, answer in zip(queries, answers))
        self.verified += len(queries)
        self.queries_attempted += len(queries)
        self.queries_ok += correct
        if correct < len(queries):
            self.failures["query-mismatch: wrong answer or failed revision"] += (
                len(queries) - correct)

    @property
    def revisions_ok(self) -> int:
        return sum(1 for _, ok in self.revisions if ok)


def check_oneshot_pair(
    planted_t: FrozenSet[int],
    planted_p: FrozenSet[int],
    compiled_t: FrozenSet[int],
    compiled_p: FrozenSet[int],
    results: Dict[str, FrozenSet[int]],
) -> Dict[str, str]:
    """Failed operators of one one-shot pair, each with the reason.

    A wrong compiled carrier fails every operator of the pair; a result
    outside ``M(P)`` fails its operator; a broken Fig. 2 arrow fails both
    of its ends, since either could be the wrong one.
    """
    failed: Dict[str, str] = {}
    if compiled_t != planted_t or compiled_p != planted_p:
        return {op: "planted T/P masks differ from the compiled carriers"
                for op in results}
    for op, masks in results.items():
        if not masks <= planted_p:
            failed[op] = "success postulate: result outside M(P)"
    for left, right in FIG2_ARROWS:
        if not results[left] <= results[right]:
            for op in (left, right):
                failed.setdefault(op, f"Fig. 2 arrow {left} ⊆ {right} broken")
    return failed


class Workload:
    """What the three workloads share: the outcome, the output records
    and the caches whose counters the traced run reads."""

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.tiny = tiny
        self.outcome = Outcome()
        self.records: list = []
        self.caches: List[BatchCache] = []

    def generate_kbs(self) -> None:
        """The inputs set-up needs (the whole of them for ``generate``)."""

    def setup(self, work_dir: str) -> None:
        """Nothing beyond the import."""

    def teardown(self) -> None:
        pass

    def live_pids(self) -> List[int]:
        """Live child processes whose CPU and memory count as ours."""
        return []


class OneShot(Workload):
    """Fresh caches, clause-heavy 32-letter pairs, all six operators.

    Every pair pays its compile fresh and runs the Satoh/Weber minimal-
    subset selection, so the SAT and selection layers do almost all of
    the work.  The six operators share one fresh :class:`BatchCache` per
    pair; each goes through its own ``revise_many`` call so that every
    revision has a latency of its own (the first call also pays the
    compile).  One round is seven pairs with ``k`` spread over 96-224;
    the order is fixed so a traced prefix means the same on every seed.
    """

    name = "oneshot-clause32"
    LETTERS = 32
    #: Seven pairs.  Latencies fall into four groups by operator
    #: (Dalal/Forbus, Winslett/Borgida, Weber, Satoh with the compile);
    #: the median lands among the Winslett/Borgida samples and the tail
    #: among the Weber ones, and with four pairs at k=128 both land in
    #: the middle of a run of like samples rather than on a group edge.
    SCHEDULE = (128, 96, 128, 224, 128, 192, 128)
    TINY_SCHEDULE = (24,)
    #: Satoh first: the compile lands on a slow operator, so the four
    #: fast ones stay a clean majority of the latency samples.
    ORDER = ("satoh", "weber", "dalal", "forbus", "winslett", "borgida")
    ROUND_S = 34.0
    #: Queries per result: a block is timed well above the timer's
    #: resolution although each answer takes tens of microseconds.
    QUERIES = 256

    def generate(self, seconds: float, ops: Optional[int]) -> None:
        schedule = self.TINY_SCHEDULE if self.tiny else self.SCHEDULE
        if ops is not None:
            count = ops
        else:
            rounds = max(1, round(seconds / self.ROUND_S))
            count = rounds * len(schedule)
        pattern = random.Random(PATTERN_SEED)
        content = random.Random(self.seed)
        self.pairs = []
        for index in range(count):
            k = schedule[index % len(schedule)]
            workload = clause_family.build(
                self.LETTERS, k, k, seed=self.seed * 7919 + index,
                noise_per_letter=9.0,
            )
            queries = {
                op: [make_query(pattern, content, workload.letters)
                     for _ in range(self.QUERIES)]
                for op in self.ORDER
            }
            self.pairs.append((workload, Theory([workload.t_formula]), queries))

    def run(self) -> None:
        outcome = self.outcome
        for workload, theory, queries in self.pairs:
            cache = BatchCache()
            self.caches.append(cache)
            results = {}
            indices = {}
            for op in self.ORDER:
                start = time.perf_counter()
                result = revise_many(
                    [(theory, workload.p_formula)], operator=[op], cache=cache
                )[0][0]
                indices[op] = outcome.add_revision(time.perf_counter() - start)
                results[op] = result
            answers = {}
            for op in self.ORDER:
                result = results[op]
                start = time.perf_counter()
                answers[op] = [result.entails(q.formula) for q in queries[op]]
                outcome.query_time_s += time.perf_counter() - start
            self.records.append({
                "workload": workload, "theory": theory, "cache": cache,
                "results": results, "indices": indices, "answers": answers,
                "queries": queries,
            })

    def verify(self) -> None:
        outcome = self.outcome
        for record in self.records:
            workload = record["workload"]
            alphabet = BitAlphabet.coerce(workload.letters)
            cache = record["cache"]
            results = {op: masks_of(r) for op, r in record["results"].items()}
            alphabets_ok = all(r.alphabet == workload.letters
                               for r in record["results"].values())
            compiled_t = frozenset(cache.bit_models(
                record["theory"].conjunction(), alphabet).iter_masks())
            compiled_p = frozenset(cache.bit_models(
                workload.p_formula, alphabet).iter_masks())
            failed = check_oneshot_pair(
                frozenset(workload.t_masks), frozenset(workload.p_masks),
                compiled_t, compiled_p, results,
            )
            if not alphabets_ok:
                failed = {op: "result alphabet differs from the planted one"
                          for op in results}
            for op in self.ORDER:
                outcome.checked_revision(record["indices"][op], failed.get(op))
                outcome.checked_queries(
                    record["queries"][op], record["answers"][op],
                    None if op in failed else results[op])

    def delta_pairs(self):
        """The compiled (T, P) carriers of every pair, for ``delta_bits``."""
        for record in self.records:
            workload = record["workload"]
            alphabet = BitAlphabet.coerce(workload.letters)
            cache = record["cache"]
            yield (cache.bit_models(record["theory"].conjunction(), alphabet),
                   cache.bit_models(workload.p_formula, alphabet))


class Chain(Workload):
    """One long-lived cache over a warm store, drifting update chains.

    The paper's iterated-revision axis: 40-letter sparse KBs with
    zipfian popularity, each request extending its KB's update chain or
    resetting it to one update, under an operator drawn from the six,
    through :meth:`BatchCache.revise_chain`; every other request is
    followed by a query block.  The store is filled by an earlier,
    untimed process; set-up warms every KB from it.
    """

    name = "chain-sparse40"
    LETTERS = 40
    FREE = 2
    KB_CUBES = 96
    UPDATE_CUBES = 24
    KBS = 8
    UPDATES = 24
    MAX_CHAIN = 5
    RESET = 0.35
    #: Requests per second of --seconds (the reference box's rate).
    RATE = 7
    QUERIES = 64

    def generate_kbs(self) -> None:
        self.kbs = []
        for index in range(2 if self.tiny else self.KBS):
            workload = sparse_family.build(
                self.LETTERS, self.KB_CUBES, 1,
                seed=self.seed * 104729 + index, free_letters=self.FREE,
            )
            theory = with_free_letters(workload.t_formula, workload.letters,
                                       self.FREE)
            self.kbs.append((theory, frozenset(workload.t_masks)))
        self.letters = workload.letters
        self.updates = []
        for index in range(4 if self.tiny else self.UPDATES):
            workload = sparse_family.build(
                self.LETTERS, 1, self.UPDATE_CUBES,
                seed=self.seed * 104729 + 7000 + index,
                free_letters=self.FREE,
            )
            self.updates.append((workload.p_formula,
                                 frozenset(workload.p_masks)))

    def generate(self, seconds: float, ops: Optional[int]) -> None:
        self.generate_kbs()
        kbs, updates = len(self.kbs), len(self.updates)
        count = ops if ops is not None else max(1, round(self.RATE * seconds))
        pattern = random.Random(PATTERN_SEED)
        content = random.Random(self.seed)
        weights = [1.0 / (rank + 1) for rank in range(kbs)]
        chains: Dict[int, Tuple[int, ...]] = {}
        deck: List[str] = []
        self.stream = []
        for index in range(count):
            kb = pattern.choices(range(kbs), weights)[0]
            chain = chains.get(kb, ())
            step = pattern.randrange(updates)
            if (not chain or len(chain) >= self.MAX_CHAIN
                    or pattern.random() < self.RESET):
                chain = (step,)
            else:
                chain = chain + (step,)
            chains[kb] = chain
            # Operators come in shuffled decks of six, so every stretch
            # of the stream holds each operator equally often.
            if not deck:
                deck = list(OPERATORS)
                pattern.shuffle(deck)
            op = deck.pop()
            queries = None
            if index % 2 == 0:
                queries = [make_query(pattern, content, self.letters)
                           for _ in range(self.QUERIES)]
            self.stream.append((kb, chain, op, queries))

    def fill(self, store_dir: str) -> None:
        """The untimed earlier process: compile every KB into the store."""
        os.environ["REPRO_STORE"] = store_dir
        cache = BatchCache()
        for theory, _ in self.kbs:
            cache.warm(theory)

    def setup(self, work_dir: str) -> None:
        os.environ["REPRO_STORE"] = os.path.join(work_dir, "store")
        self.cache = BatchCache()
        self.caches.append(self.cache)
        self.warmed = [self.cache.warm(theory) for theory, _ in self.kbs]

    def run(self) -> None:
        outcome = self.outcome
        cache = self.cache
        for kb, chain, op, queries in self.stream:
            theory = self.kbs[kb][0]
            formulas = [self.updates[step][0] for step in chain]
            start = time.perf_counter()
            result = cache.revise_chain(theory, formulas, op)
            index = outcome.add_revision(time.perf_counter() - start)
            answers = None
            if queries is not None:
                start = time.perf_counter()
                answers = [result.entails(q.formula) for q in queries]
                outcome.query_time_s += time.perf_counter() - start
            self.records.append((index, kb, chain, op, result, queries, answers))

    def expected(self, memo: dict, kb: int, chain: Tuple[int, ...], op: str):
        """The chain's result replayed on the planted carriers."""
        key = (kb, chain, op)
        found = memo.get(key)
        if found is None:
            alphabet = BitAlphabet.coerce(self.letters)
            if len(chain) == 1:
                previous = BitModelSet(alphabet, self.kbs[kb][1])
            else:
                previous = self.expected(memo, kb, chain[:-1], op)
            update = BitModelSet(alphabet, self.updates[chain[-1]][1])
            selected = get_operator(op).revise_sets(previous, update)
            found = selected.bit_model_set
            memo[key] = found
        return found

    def verify(self) -> None:
        outcome = self.outcome
        bad_kbs = {
            kb for kb, bits in enumerate(self.warmed)
            if frozenset(bits.iter_masks()) != self.kbs[kb][1]
        }
        memo: dict = {}
        for index, kb, chain, op, result, queries, answers in self.records:
            masks = masks_of(result)
            reason = None
            if kb in bad_kbs:
                reason = "planted KB masks differ from the warmed carrier"
            elif result.alphabet != self.letters:
                reason = "result alphabet differs from the planted one"
            elif not masks <= self.updates[chain[-1]][1]:
                reason = "success postulate: result outside M(P)"
            elif masks != frozenset(self.expected(memo, kb, chain, op).iter_masks()):
                reason = "differs from the replay on planted carriers"
            outcome.checked_revision(index, reason)
            if queries is not None:
                outcome.checked_queries(queries, answers,
                                        None if reason else masks)


class Service(Workload):
    """The stock :class:`RevisionService` under a closed-loop client.

    One client thread keeps at most two requests in flight against the
    default configuration (two workers) over a fresh store.  The KBs mix
    the table tier (20 letters), the sharded tier (22 and 24 letters) and
    a 40-letter sparse KB, which gets a quarter of the requests.
    Requests are revises with and without a query plus standalone
    queries, built exactly as :class:`ServiceClient` builds them, with no
    deadline.
    """

    name = "service-mixed"
    #: ``(letters, KB cubes, update cubes, free letters)`` per KB: one
    #: table-tier KB, two sharded-tier KBs and one 40-letter sparse KB,
    #: so the sparse KB gets a quarter of the requests.
    KBS = ((20, 8, 4, 3), (22, 8, 4, 3), (24, 8, 4, 3), (40, 96, 24, 2))
    TINY_KBS = ((20, 8, 4, 3), (40, 96, 24, 2))
    KINDS = ("revise", "revise-query", "query")
    UPDATES_PER_KB = 3
    MAX_CHAIN = 2
    RESET = 0.4
    IN_FLIGHT = 2
    #: Seconds one round takes on the reference box.
    ROUND_S = 2.8

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.service = None
        self.warm_failures: Counter = Counter()

    def generate_kbs(self) -> None:
        self.kbs = []
        for index, spec in enumerate(self.TINY_KBS if self.tiny else self.KBS):
            letters, kb_cubes, update_cubes, free = spec
            base = self.seed * 15485863 + index * 101
            workload = sparse_family.build(letters, kb_cubes, 1, seed=base,
                                           free_letters=free)
            theory = with_free_letters(workload.t_formula, workload.letters,
                                       free)
            updates = []
            for step in range(self.UPDATES_PER_KB):
                update = sparse_family.build(letters, 1, update_cubes,
                                             seed=base + 1 + step,
                                             free_letters=free)
                updates.append(to_str(update.p_formula))
            self.kbs.append({
                "name": f"kb{index}-{letters}",
                "letters": workload.letters,
                "theory": to_str(theory.conjunction()),
                "updates": updates,
            })

    def generate(self, seconds: float, ops: Optional[int]) -> None:
        self.generate_kbs()
        # A round is three shuffled decks of every (KB, operator) pair;
        # across its decks each pair is sent once as each request kind,
        # so every round holds the same mix and only the order and the
        # formulas depend on the seed.
        self.round_size = 3 * len(self.kbs) * len(OPERATORS)
        rounds = max(1, round(seconds / self.ROUND_S))
        if ops is not None:
            rounds = -(-ops // self.round_size)
        pattern = random.Random(PATTERN_SEED)
        content = random.Random(self.seed)
        chains: Dict[int, Tuple[int, ...]] = {}
        self.stream = []
        for deck in range(3 * rounds):
            pairs = [(kb, op) for kb in range(len(self.kbs))
                     for op in range(len(OPERATORS))]
            pattern.shuffle(pairs)
            for kb, op in pairs:
                chain = chains.get(kb, ())
                step = pattern.randrange(self.UPDATES_PER_KB)
                if (not chain or len(chain) >= self.MAX_CHAIN
                        or pattern.random() < self.RESET):
                    chain = (step,)
                else:
                    chain = chain + (step,)
                chains[kb] = chain
                kind = self.KINDS[(kb + op + deck) % 3]
                query = None
                if kind != "revise":
                    query = make_query(pattern, content,
                                       self.kbs[kb]["letters"])
                self.stream.append((kb, chain, OPERATORS[op],
                                    "query" if kind == "query" else "revise",
                                    query))
        if ops is not None:
            del self.stream[ops:]

    def request(self, position: int):
        from repro.service import Request

        kb, chain, op, kind, query = self.stream[position]
        spec = self.kbs[kb]
        updates = tuple(spec["updates"][step] for step in chain)
        text = query.text if query is not None else None
        # The fields ServiceClient.revise / ServiceClient.query set.
        return Request(kind=kind, kb=spec["name"], theory=spec["theory"],
                       updates=updates, query=text, operator=op,
                       deadline=None)

    def setup(self, work_dir: str) -> None:
        from repro.service import RevisionService, ServiceClient, ServiceConfig

        self.work_dir = work_dir
        store = os.path.join(work_dir, f"store-{os.getpid()}")
        os.makedirs(store, exist_ok=True)
        os.environ["REPRO_STORE"] = store
        self.service = RevisionService(ServiceConfig()).start()
        client = ServiceClient(self.service)
        for spec in self.kbs:
            response = client.warm(spec["name"], spec["theory"])
            if not response.ok:
                self.warm_failures[
                    f"{response.status}: {first_line(response.error)}"] += 1

    def run(self, on_request: Optional[Callable] = None) -> None:
        service = self.service
        in_flight: Dict[concurrent.futures.Future, Tuple[int, object, float]] = {}
        position = 0
        while True:
            while (len(in_flight) < self.IN_FLIGHT
                   and position < len(self.stream)):
                request = self.request(position)
                sent = time.perf_counter()
                in_flight[service.submit(request)] = (position, request, sent)
                position += 1
            if not in_flight:
                break
            done, _ = concurrent.futures.wait(
                in_flight, return_when=concurrent.futures.FIRST_COMPLETED)
            finished = time.perf_counter()
            for future in done:
                index, request, sent = in_flight.pop(future)
                response = future.result()
                self.records.append({
                    "position": index, "request": request,
                    "response": response, "latency_s": finished - sent,
                    "sent": sent, "finished": finished,
                })
                if on_request is not None:
                    on_request(sent, finished)
        self.records.sort(key=lambda record: record["position"])

    def teardown(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None

    def live_pids(self) -> List[int]:
        if self.service is None:
            return []
        return list(self.service.live_worker_pids())

    def replay(self) -> None:
        """Run the warm requests and then every request inline in this
        process, over a fresh store, as the workers did; keeps each
        request's expected result and inline time."""
        from repro.logic.formula import as_formula

        store = os.path.join(self.work_dir, f"replay-{os.getpid()}")
        os.environ["REPRO_STORE"] = store
        cache = BatchCache()
        self.caches.append(cache)
        for spec in self.kbs:
            cache.warm(Theory.coerce((spec["theory"],)))
        for record in self.records:
            request = record["request"]
            start = time.perf_counter()
            result = cache.revise_chain(Theory.coerce(tuple(request.theory)),
                                        request.updates, request.operator)
            entailed = None
            if request.query is not None:
                entailed = result.entails(as_formula(request.query))
            record["inline_s"] = time.perf_counter() - start
            record["expected"] = masks_of(result)
            record["expected_letters"] = result.alphabet
            record["inline_entailed"] = entailed
        os.environ.pop("REPRO_STORE", None)

    def verify(self) -> None:
        if not self.records or "expected" not in self.records[0]:
            self.replay()
        outcome = self.outcome
        for record in self.records:
            request = record["request"]
            response = record["response"]
            query = self.stream[record["position"]][4]
            reason = None
            status = response.status
            if not response.ok:
                reason = response.error or status
            elif request.kind == "revise" and (
                    frozenset(response.masks or ()) != record["expected"]
                    or tuple(response.letters or ()) != record["expected_letters"]):
                status, reason = "mismatch", "masks differ from the inline run"
            elif query is not None and (
                    response.entailed != query.expected(record["expected"])
                    or response.entailed != record["inline_entailed"]):
                status, reason = "mismatch", "entailment differs from the inline run"
            if request.kind == "revise":
                index = outcome.add_revision(record["latency_s"])
                outcome.checked_revision(index, reason, status)
                continue
            outcome.verified += 1
            outcome.queries_attempted += 1
            outcome.query_time_s += record["latency_s"]
            if reason is None:
                outcome.queries_ok += 1
            else:
                outcome.failures[f"query-{status}: {first_line(reason)}"] += 1


WORKLOADS = {cls.name: cls for cls in (OneShot, Chain, Service)}
