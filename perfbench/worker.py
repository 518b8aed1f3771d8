"""The process that runs the ops: one closed-loop caller.

Started by ``run.py`` as ``python3 perfbench/worker.py WORKLOAD SEED ROOT``.
It imports ``bridgecover`` from ``ROOT/src``, rebuilds the op list from the
seed and then answers one JSON request per line on stdin:

    {"cmd": "run", "id": i}      run op i, reply with status, time, answer
    {"cmd": "reference"}         time ``reference_work`` once
    {"cmd": "trace", "on": b}    install or remove the tracing wrappers
    {"cmd": "end", "spans": p}   reply with peak memory and the per-layer
                                 numbers, write the spans to p, and exit

Only the library call is timed.  The per-op limit is an interval timer
whose handler raises ``OpTimeout``, a ``BaseException`` so that no
``except Exception`` in the library swallows it.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import signal
import sys
import time
from typing import Callable, Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ops as oplib  # noqa: E402


class OpTimeout(BaseException):
    """The running op passed its limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def encode_int(value) -> str:
    """Hex text for an integer (no digit limit), "INF" for INFINITE."""
    return format(value, "x") if isinstance(value, int) else "INF"


def _cli(lib, argv: List[str]) -> Callable[[], Dict[str, object]]:
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = lib.cli.main(argv)
        return {"stdout": out.getvalue(), "code": code}
    return call


def _cert_stats(root) -> Tuple[int, int]:
    """(nodes, distinct links) of a certificate tree, without recursion."""
    nodes, links, stack = 0, set(), [root]
    while stack:
        node = stack.pop()
        nodes += 1
        links.add(node.link)
        stack.extend(c for c in (node.zero, node.inf, node.child)
                     if c is not None)
    return nodes, len(links)


class Runner:
    """Holds the imported library, the op list and the texts written so far."""

    def __init__(self, root: str, workload: str, seed: int):
        sys.path.insert(0, os.path.join(root, "src"))
        import bridgecover.cli
        import bridgecover.goeritz
        import bridgecover.loelim
        import bridgecover.presentations
        import bridgecover.qacert
        import bridgecover.twobridge

        self.lib = bridgecover
        self.ops = oplib.op_list(workload, seed)
        golden = os.path.join(root, "tests", "golden", "cert_L1111.json")
        with open(golden, encoding="utf-8") as handle:
            self.texts: Dict[object, str] = {"golden": handle.read()}
        self.last_use = {}
        for op in self.ops:
            if "ref" in op:
                self.last_use[op["ref"]] = op["id"]
        self.cert_path = os.path.join(root, "perfbench", "out",
                                      f"read-{os.getpid()}.json")
        self.tracer = None

    # -- op kinds: each returns (timed call, post-processing of its result)

    def _h1_values(self, terms, n, methods):
        lib = self.lib
        pres = lib.presentations
        values = {}
        if "snf" in methods:
            if len(terms) == 2:
                k, l = terms[0] // 2, -terms[1] // 2
                p = pres.genus_one_presentation(k, l, n)
            else:
                q, s, t, l = (-terms[0] // 2, terms[1] // 2, -terms[2] // 2,
                              terms[3] // 2)
                p = pres.mv_presentation(q, s, t, l, n)
            values["snf"] = pres.h1_order(p)
        if "oracle" in methods:
            values["oracle"] = lib.twobridge.h1_cyclic_cover_order(terms, n)
        if "table" in methods and len(terms) == 4 and n == 3:
            params = {"q": -terms[0] // 2, "s": terms[1] // 2,
                      "t": -terms[2] // 2, "l": terms[3] // 2}
            values["table"] = abs(lib.goeritz.table_formula("L", "*,*,*",
                                                            params))
        return values

    def prepare(self, op):
        kind, args, lib = op["kind"], op["args"], self.lib
        if kind in ("h1_all", "h1_oracle", "h1_snf"):
            terms, n = args["terms"], args["n"]
            method = {"h1_all": "all", "h1_oracle": "oracle",
                      "h1_snf": "snf"}[kind]
            if op["cli"]:
                argv = ["h1", "--cover", str(n), "--method", method, "--"]
                return _cli(lib, argv + [str(a) for a in terms]), None
            methods = ("snf", "oracle", "table") if method == "all" \
                else (method,)
            return (lambda: self._h1_values(terms, n, methods),
                    lambda v: {"values": {m: encode_int(x)
                                          for m, x in v.items()}})
        if kind == "product":
            call = lambda: lib.presentations.verify_product_identity(
                *args["params"])
            return call, lambda v: {"status": v.status,
                                    "abelian": list(v.abelian_sums),
                                    "reduced": v.reduced_product}
        if kind == "rewrites":
            call = lambda: lib.presentations.verify_rewrites(*args["params"])
            return call, lambda v: {"all_ok": v.all_ok,
                                    "records": len(v.records)}
        if kind == "genus2":
            signs = args["signs"]
            if op["cli"]:
                text = ",".join("+" if s > 0 else "-" for s in signs)
                return _cli(lib, ["lo-elim", "--family", "genus2",
                                  "--signs", text]), None
            le = lib.loelim
            return (lambda: le.genus2_report_text(le.genus2_level0(*signs)),
                    lambda v: {"stdout": v})
        if kind == "table1":
            fmt = args["format"]
            if op["cli"]:
                return _cli(lib, ["lo-elim", "--family", "genus1", "--table1",
                                  "--format", fmt]), None
            le = lib.loelim
            render = le.report_text if fmt == "text" else le.report_csv
            return lambda: render(le.table1_report()), \
                lambda v: {"stdout": v}
        if kind in ("write_L", "write_A"):
            return self._prepare_write(op)
        if kind in ("read", "mutant"):
            return self._prepare_read(op)
        if kind in ("star_L", "star_A"):
            g = lib.goeritz
            build = g.build_L_star if kind == "star_L" else g.build_A_star
            return (lambda: g.det_exact(build(*args["params"])),
                    lambda v: {"det": encode_int(v)})
        raise ValueError(f"unknown op kind {kind!r}")

    def _prepare_write(self, op):
        qa, params = self.lib.qacert, op["args"]["params"]
        family = op["kind"][-1]
        if op["cli"]:
            argv = ["cert", "generate", "--family", family, "--params",
                    ",".join(str(p) for p in params)]
            call = _cli(self.lib, argv)

            def after(v):
                return self._written(op, v["stdout"], qa.deserialize(v["stdout"]))
            return call, after
        generate = qa.generate_L_cert if family == "L" else qa.generate_A_cert

        def call():
            cert = generate(*params)
            return cert, qa.serialize(cert)
        return call, lambda v: self._written(op, v[1], v[0])

    def _written(self, op, text, cert):
        if op["id"] in self.last_use:
            self.texts[op["id"]] = text
        nodes, links = _cert_stats(cert.root)
        return {"verdict": str(self.lib.qacert.verify(cert)),
                "bytes": len(text.encode()), "nodes": nodes, "links": links}

    def _prepare_read(self, op):
        qa = self.lib.qacert
        text = self.texts[op["ref"]]
        if op["kind"] == "mutant":
            text = mutate(text, op["pick"])
        if op["last"] and op["ref"] != "golden":
            del self.texts[op["ref"]]
        if op["cli"]:
            os.makedirs(os.path.dirname(self.cert_path), exist_ok=True)
            path = self.cert_path
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            return _cli(self.lib, ["cert", "verify", "--in", path]), None

        def call():
            try:
                cert = qa.deserialize(text)
            except qa.CertParseError as exc:
                return f"REJECT {exc}"
            return str(qa.verify(cert))
        return call, lambda v: {"stdout": v + "\n"}

    def run(self, i: int) -> Dict[str, object]:
        op = dict(self.ops[i])
        op["last"] = self.last_use.get(op.get("ref")) == i
        try:
            call, after = self.prepare(op)
        except (KeyError, OSError) as exc:  # e.g. a text lost in a restart
            return {"id": i, "status": "error", "t": 0.0, "answer": None,
                    "error": "prepare:" + type(exc).__name__}
        if self.tracer is not None:
            self.tracer.op_id = i
        status, error, answer = "ok", "", None
        elapsed = op["limit_s"]
        signal.setitimer(signal.ITIMER_REAL, op["limit_s"])
        start = time.perf_counter()
        try:
            try:
                value = call()
            finally:
                elapsed = time.perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            status = "timeout"
        except (Exception, SystemExit) as exc:  # any failure of the op
            status, error = "error", type(exc).__name__
        finally:
            if self.tracer is not None:
                self.tracer.op_id = -1
        if status == "ok":
            try:
                answer = after(value) if after is not None else value
            except Exception as exc:  # the answer could not be checked
                status, error = "error", "check:" + type(exc).__name__
        return {"id": i, "status": status, "error": error, "t": elapsed,
                "answer": answer}


def reference_work() -> int:
    """A fixed piece of pure-Python work that calls no bridgecover code:
    fraction-free elimination on a 40x40 integer matrix, then a dict, string
    and json round on the result.  Its time tracks the speed of the machine
    while the ops run."""
    n = 40
    m = [[(i * 7 + j * 13) % 17 - 8 + (5 if i == j else 0) for j in range(n)]
         for i in range(n)]
    prev = 1
    for k in range(n - 1):
        pivot, top = m[k][k] or 1, m[k]
        for i in range(k + 1, n):
            row = m[i]
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - f * top[j]) // prev
        prev = pivot
    counts: Dict[int, int] = {}
    for row in m:
        for v in row:
            counts[v % 97] = counts.get(v % 97, 0) + 1
    text = json.dumps({str(k): v for k, v in counts.items()})
    return len(json.loads(text)) + len(" ".join(str(v) for v in m[-1]))


def time_reference() -> float:
    """Seconds one ``reference_work`` takes, with the collector off so that
    the ops' garbage does not land on it."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        gc.enable()


def leaf_paths(node, prefix=()):
    if isinstance(node, dict):
        for key in sorted(node):
            yield from leaf_paths(node[key], prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from leaf_paths(value, prefix + (index,))
    else:
        yield prefix, node


def mutate(text: str, pick: int) -> str:
    """Change one leaf field of a certificate: integers +1, strings + "X",
    booleans negated; ``pick`` chooses the leaf."""
    doc = json.loads(text)
    paths = list(leaf_paths(doc))
    path, value = paths[pick % len(paths)]
    if isinstance(value, bool):
        value = not value
    elif isinstance(value, int):
        value = value + 1
    elif isinstance(value, str):
        value = value + "X"
    else:
        value = "MUTANT"
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def peak_rss_kb(pid="self") -> int:
    """Peak resident memory of a process in kB.

    VmHWM belongs to the address space made by exec, whereas ``ru_maxrss``
    keeps the peak of the parent that forked the worker."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    if pid == "self":
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return 0


def main(argv: List[str]) -> int:
    workload, seed, root = argv[0], int(argv[1]), argv[2]
    channel = sys.stdout
    sys.stdout = sys.stderr  # keep stray prints off the reply channel
    runner = Runner(root, workload, seed)
    signal.signal(signal.SIGALRM, _on_alarm)

    def reply(obj):
        channel.write(json.dumps(obj) + "\n")
        channel.flush()

    # CPU time since the process started: interpreter start-up, importing
    # bridgecover and building the op list
    reply({"ready": True, "cpu_s": time.process_time()})
    for line in sys.stdin:
        req = json.loads(line)
        if req["cmd"] == "run":
            reply(runner.run(req["id"]))
        elif req["cmd"] == "reference":
            reply({"t": time_reference()})
        elif req["cmd"] == "trace":
            if req["on"]:
                import tracing
                if runner.tracer is None:
                    runner.tracer = tracing.Tracer(runner.lib)
                runner.tracer.install()
            elif runner.tracer is not None:
                runner.tracer.uninstall()
            reply({"trace": req["on"]})
        elif req["cmd"] == "end":
            if os.path.exists(runner.cert_path):
                os.remove(runner.cert_path)
            out = {"peak_rss_kb": peak_rss_kb()}
            if runner.tracer is not None:
                runner.tracer.uninstall()
                out["layers"] = runner.tracer.layer_metrics()
                out["spans"] = runner.tracer.span_count()
                if req.get("spans"):
                    runner.tracer.write(req["spans"])
            reply(out)
            return 0
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
