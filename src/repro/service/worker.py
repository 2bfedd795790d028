"""The service worker process: one :class:`BatchCache`, one Pipe.

Each worker owns a private :class:`repro.revision.batch.BatchCache`
(chain-prefix memo, carrier LRU) that probes the *shared* artifact
store (``REPRO_STORE``) on compile misses — the PR 8 contract that
makes the front-end's crash retries safe: any worker recomputes any
request to bit-identical masks, and the hot compiles come off disk
instead of SAT.  Next to it sit two bounded parse memos
(:func:`parse_theory`, :func:`parse_formula`), so a KB or update text
the worker has seen is not parsed again.

Protocol (parent → worker over a duplex Pipe)::

    ("req", seq, frame)   # frame = Request.frame() + dispatch extras
    ("stop",)

worker → parent::

    ("hb", pid)                       # on start, then while idle
    ("res", seq, response_dict, envelope)

Heartbeats are sent only from the *idle* wait loop (``conn.poll``
timeout), never from a thread: a worker stuck in a long request goes
silent by design, and the supervisor distinguishes "busy with a
deadline" (hang-killed past the request's deadline + grace) from "idle
and silent" (dead — restart).  The ``fault`` key of a frame carries the
front-end's injection decision: ``"crash"`` dies with ``os._exit(1)``
before any reply, ``"hang[:seconds]"`` sleeps (default far past any
hang deadline) — both before the request executes, so a retried frame
on a fresh worker is immune by construction.

Every request runs inside :func:`repro.obs.worker_capture_begin` /
``worker_capture_end``, shipping metric deltas and buffered span events
back in the response for the front-end to merge — the same envelope
contract :mod:`repro.runtime.pool` uses.
"""

from __future__ import annotations

import os
import time
from functools import lru_cache
from typing import Any, Dict, Tuple

from repro import obs as _obs
from repro import runtime as _runtime
from repro.logic.formula import Formula, as_formula
from repro.logic.theory import Theory
from repro.revision.batch import BatchCache

#: Default hang-fault sleep: far past any realistic hang deadline.
HANG_DEFAULT_S = 3600.0

#: Parsed KB texts, and separately parsed update texts, one worker keeps
#: (least recently used goes first).  A request stream revisits a few KBs
#: and their updates; each entry holds one parsed theory or formula, so
#: the bound caps each memo's memory at that many parse trees.
PARSE_MEMO_ENTRIES = 64


@lru_cache(maxsize=PARSE_MEMO_ENTRIES)
def parse_theory(texts: Tuple[Any, ...]) -> Theory:
    """The theory of a request's KB texts, memoised per worker process.

    A repeated KB text maps to the *same* :class:`Theory`, whose hash,
    ``variables()`` and conjunction are already cached, so the worker's
    :class:`BatchCache` keys resolve without re-walking the KB.  A text
    that fails to parse raises on every request that carries it.
    """
    return Theory.coerce(texts)


@lru_cache(maxsize=PARSE_MEMO_ENTRIES)
def parse_formula(text: Any) -> Formula:
    """The formula of one update text, memoised like :func:`parse_theory`."""
    return as_formula(text)


def _execute(cache: BatchCache, frame: Dict[str, Any]) -> Dict[str, Any]:
    """Run one request frame against the worker's cache.

    Returns a :class:`repro.service.protocol.Response`-shaped dict; the
    front-end fills in the serving-side fields (attempts, hedged,
    latency).  The per-request budget is entered here so ``timeout`` /
    ``budget`` outcomes are typed responses, never worker deaths; text
    coercion runs inside the same guard, so a malformed theory, update
    or query is an ``error`` response too.
    """
    kind = frame.get("kind", "revise")
    base: Dict[str, Any] = {
        "status": "ok",
        "kind": kind,
        "kb": frame.get("kb", "default"),
        "operator": frame.get("operator"),
        "degraded": bool(frame.get("degraded")),
        "worker_pid": os.getpid(),
    }
    if kind == "ping":
        return base
    budget = _runtime.Budget(
        deadline=frame.get("deadline"),
        max_models=frame.get("max_models"),
        max_words=frame.get("max_words"),
    )
    operator = frame.get("operator") or "dalal"
    try:
        with _obs.span("service.parse", kb=base["kb"]) as parse_span:
            hits = (parse_theory.cache_info().hits
                    + parse_formula.cache_info().hits)
            theory = parse_theory(tuple(frame.get("theory") or ()))
            updates = [parse_formula(text)
                       for text in frame.get("updates") or ()]
            hits = (parse_theory.cache_info().hits
                    + parse_formula.cache_info().hits - hits)
            parse_span.set("cached", hits == 1 + len(updates))
            query = frame.get("query")
            if query is not None:
                query = as_formula(query)
        with budget:
            with _obs.span("service.work", kind=kind,
                           kb=base["kb"], op=operator):
                if kind == "warm":
                    bits = cache.warm(theory)
                    base["model_count"] = bits.count()
                    base["letters"] = bits.alphabet.letters
                    return base
                result = cache.revise_chain(theory, updates, operator)
                base["engine_tier"] = result.engine_tier
                base["model_count"] = result.model_count()
                base["letters"] = result.alphabet
                if query is not None:
                    base["entailed"] = result.entails(query)
                if kind == "revise":
                    base["masks"] = sorted(result.bit_model_set.iter_masks())
                return base
    except _runtime.EngineTimeout as error:
        base["status"] = "timeout"
        base["error"] = str(error)
    except _runtime.BudgetExceeded as error:
        base["status"] = "budget"
        base["error"] = str(error)
    except Exception as error:  # typed error response, never a death
        base["status"] = "error"
        base["error"] = f"{type(error).__name__}: {error}"
    return base


def worker_main(conn, config: Dict[str, Any]) -> None:
    """Entry point of a worker process (top-level so it spawns too)."""
    heartbeat_s = float(config.get("heartbeat_s", 0.25))
    cache = BatchCache()
    try:
        conn.send(("hb", os.getpid()))
        while True:
            if not conn.poll(heartbeat_s):
                conn.send(("hb", os.getpid()))
                continue
            message = conn.recv()
            if not message or message[0] == "stop":
                break
            _, seq, frame = message
            fault = frame.get("fault")
            if fault:
                name, _, param = fault.partition(":")
                if name == "crash":
                    os._exit(1)
                if name == "hang":
                    time.sleep(float(param) if param else HANG_DEFAULT_S)
            token = _obs.worker_capture_begin()
            try:
                response = _execute(cache, frame)
            finally:
                envelope = _obs.worker_capture_end(token)
            conn.send(("res", seq, response, envelope))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass
