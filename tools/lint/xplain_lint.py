#!/usr/bin/env python3
"""xplain_lint: repo-specific determinism / concurrency / layering linter.

XPlain's verdicts are only credible if the pipeline is bitwise-deterministic
for any worker count (util/parallel.h spells out the contract).  This linter
machine-checks the source-level rules that contract rests on, as a ctest
entry (`xplain_lint`) so CI fails on violations:

  no-std-rand            std::rand / srand / rand() outside util/random —
                         unseeded libc RNG breaks seed-reproducibility.
  no-random-device       std::random_device anywhere outside util/random:
                         entropy that cannot be replayed from a seed.
  no-wall-clock          C time() / std::chrono::system_clock in logic —
                         wall-clock values leak nondeterminism into results
                         (steady_clock elapsed-time *reporting* is fine and
                         not matched).
  no-thread-id           std::this_thread::get_id in logic: scheduling-
                         dependent identity, forbidden by slot determinism.
  no-unordered-in-results
                         std::unordered_* in result/serialization/feature
                         layers (hash iteration order is unspecified and
                         varies across libstdc++ versions); elsewhere only
                         *iteration* over an unordered container is flagged.
  no-raw-mutex           std::mutex family in src/ — use util::Mutex
                         (util/thread_annotations.h), which clang's
                         -Wthread-safety can see through; a raw std::mutex
                         silently opts its guarded state out of analysis.
  mutex-annotation       a util::Mutex member whose file never uses
                         XPLAIN_GUARDED_BY guards nothing the analysis can
                         check — annotate the shared state.
  layering               the include-direction DAG (subsumes the retired
                         tools/check_layering.sh): cross-directory includes
                         must point strictly down the layer order, and core
                         layers never include the concrete case studies.

Suppression: append `// xplain-lint: allow(<rule>[, <rule>...])` to the
offending line, or place it alone on the line directly above.  Suppressions
are deliberate, reviewable statements ("yes, this is intentionally racy /
intentionally unordered") — the linter's job is making the exception loud.

Self-test: `xplain_lint.py --self-test` runs every file in
tools/lint/testdata/ (committed known-bad corpus) under the same rules.
Each planted violation carries `// expect-lint: <rule>` on its line; the
self-test fails unless expected and actual findings match *exactly* both
ways — every rule is proven to fire, and to not over-fire.  Testdata files
declare the path they should be linted as via a `// lint-as: <path>` header
line (the layering and path-scoped rules depend on location).

Usage:
  xplain_lint.py [--root DIR]            # lint src/ and tools/ under DIR
  xplain_lint.py --self-test [--root DIR]
"""

import argparse
import re
import sys
from pathlib import Path

# ---------------------------------------------------------------------------
# Layering model (mirrors the CMake library graph; see CMakeLists.txt).
# Cross-directory includes must point to a strictly lower rank.  engine and
# cases share the top rank: the engine drives cases through the CaseRegistry
# at runtime, never via an include — equal ranks reject both directions.
LAYER_RANK = {
    "util": 0,
    "solver": 1,
    "model": 2,
    "stats": 3,
    "flowgraph": 4,
    "te": 5,
    "vbp": 5,
    "lb": 6,
    "scenario": 7,
    "analyzer": 8,
    "subspace": 9,
    "explain": 10,
    "xplain": 11,
    "generalize": 12,
    "engine": 13,
    "cases": 13,
    "server": 14,
    "search": 14,
}

# Core layers stay case-agnostic: the rank order alone would let analyzer
# (rank 8) include te (rank 5), but cases adapt themselves to the core
# interfaces, never vice versa.
CORE_DIRS = {"analyzer", "subspace", "explain", "flowgraph", "model",
             "solver", "stats", "util"}
DOMAIN_DIRS = {"te", "vbp", "lb", "scenario", "cases", "generalize",
               "xplain", "engine", "server", "search"}
# The service sits above the engine but stays heuristic-agnostic exactly
# the way the engine does: cases are driven through the CaseRegistry at
# runtime, never via an include.  Rank alone cannot enforce this (cases is
# rank 13, below server's 14), so the ban is explicit.
SERVER_FORBIDDEN = {"cases"}
# The fuzzer (search) shares server's rank — it is a peer consumer of the
# engine, so search<->server includes are rejected in both directions by
# the equal-rank rule — and it probes cases the same registry-driven way,
# so the cases ban is explicit here too.
SEARCH_FORBIDDEN = {"cases"}
# src/xplain is core too, with one sanctioned exception: scenario/spec.h
# (the dependency-free ScenarioSpec POD).
XPLAIN_FORBIDDEN = DOMAIN_DIRS - {"xplain"}
XPLAIN_ALLOWED_INCLUDES = {"scenario/spec.h"}

# Layers where container iteration order reaches results, serialized output
# or Type-3 feature vectors: any std::unordered_* use is banned here.
RESULT_DIRS = {"analyzer", "stats", "subspace", "explain", "xplain",
               "generalize", "engine", "cases", "server", "search"}

# The sanctioned RNG wrapper sources (the only place entropy may enter).
RANDOM_WRAPPER = re.compile(r"src/util/random\.(h|cpp)$")
# The annotation header itself wraps std::mutex — that is its whole job.
ANNOTATIONS_HEADER = re.compile(r"src/util/thread_annotations\.h$")

SUPPRESS_RE = re.compile(r"//\s*xplain-lint:\s*allow\(([^)]*)\)")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:xplain::)?(?:util::)?Mutex\s+\w+\s*;")
RAW_MUTEX_RE = re.compile(
    r"\bstd::(mutex|recursive_mutex|recursive_timed_mutex|timed_mutex|"
    r"shared_mutex)\b")
UNORDERED_RE = re.compile(
    r"\bstd::unordered_\w+|#\s*include\s*<unordered_\w+>")
# Name declared as an unordered container ("std::unordered_map<K, V> idx;")
# — range-fors over such names are flagged even outside the result layers.
UNORDERED_DECL_NAME_RE = re.compile(
    r"std::unordered_\w+\s*<[^;{]*>\s*[&*]?\s*(\w+)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^:;]*:\s*&?\s*([\w.>-]+)\s*\)")
UNORDERED_ITER_RE = re.compile(r"\bfor\s*\(.*:.*unordered")
RAND_RE = re.compile(r"\bstd::rand\b|\bsrand\s*\(|[^\w.]rand\s*\(")
RANDOM_DEVICE_RE = re.compile(r"\brandom_device\b")
WALL_CLOCK_RE = re.compile(r"[^\w.]time\s*\(|\bsystem_clock\b")
THREAD_ID_RE = re.compile(r"\bthis_thread::get_id\b")


class Finding:
    def __init__(self, path, line_no, rule, message):
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.message}"


def strip_line_comment(line):
    """Code portion of a line (string-literal-naive, fine for this tree)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def suppressions_for(lines, i):
    """Rules allowed on line i (0-based): same-line or line-above marker."""
    allowed = set()
    for j in (i, i - 1):
        if 0 <= j < len(lines):
            m = SUPPRESS_RE.search(lines[j])
            if m:
                allowed.update(r.strip() for r in m.group(1).split(","))
    return allowed


def src_subdir(virtual_path):
    """The src/ layer a path belongs to, or None ('src/solver/lp.h' ->
    'solver')."""
    parts = Path(virtual_path).parts
    if len(parts) >= 3 and parts[0] == "src":
        return parts[1]
    return None


def lint_file(virtual_path, text):
    """All findings for one file, given the path its rules apply under."""
    findings = []
    lines = text.splitlines()
    vpath = str(virtual_path).replace("\\", "/")
    layer = src_subdir(vpath)
    is_random_wrapper = bool(RANDOM_WRAPPER.search(vpath))
    is_annotations_header = bool(ANNOTATIONS_HEADER.search(vpath))
    in_block_comment = False
    mutex_member_lines = []
    unordered_names = set()  # identifiers declared as unordered containers
    has_guarded_by = False  # set from CODE lines only, not comments

    def add(i, rule, message):
        if rule not in suppressions_for(lines, i):
            findings.append(Finding(vpath, i + 1, rule, message))

    for i, raw in enumerate(lines):
        # Keep comment-only lines out of the pattern rules (block comments
        # are tracked coarsely: a line inside /* */ is skipped entirely).
        if in_block_comment:
            if "*/" in raw:
                in_block_comment = False
            continue
        code = strip_line_comment(raw)
        if "/*" in code and "*/" not in code:
            in_block_comment = True
            code = code[: code.index("/*")]
        if not code.strip():
            continue
        if "XPLAIN_GUARDED_BY" in code:
            has_guarded_by = True

        # --- determinism escape hatches -----------------------------------
        if not is_random_wrapper:
            if RAND_RE.search(code):
                add(i, "no-std-rand",
                    "libc rand()/srand() is not seed-reproducible; draw "
                    "from util::Rng / util::SlotRng (src/util/random.h)")
            if RANDOM_DEVICE_RE.search(code):
                add(i, "no-random-device",
                    "std::random_device entropy cannot be replayed from a "
                    "seed; derive streams via util::Rng::derive_seed")
        if WALL_CLOCK_RE.search(code):
            add(i, "no-wall-clock",
                "wall-clock time in logic breaks replay determinism; use "
                "explicit seeds (steady_clock elapsed-time reporting via "
                "util::Timer is fine)")
        if THREAD_ID_RE.search(code):
            add(i, "no-thread-id",
                "thread identity is scheduling-dependent; index per-worker "
                "state by the parallel_chunks worker argument instead")

        # --- unordered containers -----------------------------------------
        for m_decl in UNORDERED_DECL_NAME_RE.finditer(code):
            unordered_names.add(m_decl.group(1))
        iterates_unordered = bool(UNORDERED_ITER_RE.search(code))
        if not iterates_unordered:
            m_for = RANGE_FOR_RE.search(code)
            if m_for:
                # "obj.idx_" / "this->idx_" -> "idx_"
                target = re.split(r"\.|->", m_for.group(1))[-1]
                iterates_unordered = target in unordered_names
        if layer in RESULT_DIRS and UNORDERED_RE.search(code):
            add(i, "no-unordered-in-results",
                f"std::unordered_* in src/{layer}/ (a result/serialization/"
                "feature path): hash iteration order is unspecified — use "
                "std::map/std::set or a sorted vector")
        elif iterates_unordered:
            add(i, "no-unordered-in-results",
                "iterating an unordered container feeds unspecified order "
                "into downstream state; iterate a sorted view instead")

        # --- mutexes --------------------------------------------------------
        if not is_annotations_header and RAW_MUTEX_RE.search(code):
            add(i, "no-raw-mutex",
                "std::mutex is invisible to clang -Wthread-safety; use "
                "util::Mutex + util::MutexLock "
                "(src/util/thread_annotations.h)")
        if MUTEX_MEMBER_RE.search(code):
            mutex_member_lines.append(i)

        # --- layering -------------------------------------------------------
        m = INCLUDE_RE.match(code)
        if m and layer is not None:
            inc = m.group(1)
            inc_dir = inc.split("/", 1)[0]
            if inc_dir in LAYER_RANK and inc_dir != layer:
                if layer == "xplain" and inc_dir in XPLAIN_FORBIDDEN \
                        and inc not in XPLAIN_ALLOWED_INCLUDES:
                    add(i, "layering",
                        f'src/xplain must not include "{inc}" — the core '
                        "pipeline stays case-agnostic (scenario/spec.h is "
                        "the sanctioned exception)")
                elif layer == "server" and inc_dir in SERVER_FORBIDDEN:
                    add(i, "layering",
                        f'src/server must not include "{inc}" — the service '
                        "drives cases through the CaseRegistry at runtime, "
                        "exactly like the engine")
                elif layer == "search" and inc_dir in SEARCH_FORBIDDEN:
                    add(i, "layering",
                        f'src/search must not include "{inc}" — the fuzzer '
                        "probes cases through Engine grids (CaseRegistry at "
                        "runtime), never via an include")
                elif layer in CORE_DIRS and inc_dir in DOMAIN_DIRS:
                    add(i, "layering",
                        f'src/{layer} (core) must not include "{inc}" — '
                        "cases adapt to the core interfaces, never vice "
                        "versa")
                elif LAYER_RANK[inc_dir] >= LAYER_RANK[layer]:
                    add(i, "layering",
                        f'src/{layer} (rank {LAYER_RANK[layer]}) may only '
                        f'include layers strictly below it; "{inc}" is '
                        f"rank {LAYER_RANK[inc_dir]}")

    # A file that declares Mutex members but never uses XPLAIN_GUARDED_BY is
    # locking nothing the analysis can check.
    if mutex_member_lines and not has_guarded_by \
            and not is_annotations_header:
        for i in mutex_member_lines:
            add(i, "mutex-annotation",
                "util::Mutex member but no XPLAIN_GUARDED_BY anywhere in "
                "this file — annotate the state this mutex protects")

    return findings


# ---------------------------------------------------------------------------
def iter_tree_files(root):
    for top in ("src", "tools"):
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".h", ".cpp", ".cc", ".hpp"):
                continue
            rel = path.relative_to(root)
            if rel.parts[:3] == ("tools", "lint", "testdata"):
                continue  # the known-bad corpus is bad on purpose
            yield path, rel


def run_tree(root):
    findings = []
    n_files = 0
    for path, rel in iter_tree_files(root):
        n_files += 1
        findings.extend(lint_file(rel, path.read_text(encoding="utf-8")))
    for f in findings:
        print(f, file=sys.stderr)
    if findings:
        print(f"xplain_lint: FAILED ({len(findings)} finding(s) across "
              f"{n_files} files)", file=sys.stderr)
        return 1
    print(f"xplain_lint: OK ({n_files} files clean)")
    return 0


# ---------------------------------------------------------------------------
LINT_AS_RE = re.compile(r"//\s*lint-as:\s*(\S+)")
EXPECT_RE = re.compile(r"//\s*expect-lint:\s*([\w-]+(?:\s*,\s*[\w-]+)*)")


def run_self_test(root):
    corpus = root / "tools" / "lint" / "testdata"
    files = sorted(p for p in corpus.iterdir()
                   if p.suffix in (".h", ".cpp", ".cc", ".hpp"))
    if not files:
        print(f"xplain_lint --self-test: no corpus under {corpus}",
              file=sys.stderr)
        return 1
    failures = []
    total_expected = 0
    for path in files:
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        m = LINT_AS_RE.search(text)
        virtual = m.group(1) if m else f"src/xplain/{path.name}"
        expected = set()
        for i, line in enumerate(lines):
            em = EXPECT_RE.search(line)
            if em:
                for rule in em.group(1).split(","):
                    expected.add((i + 1, rule.strip()))
        total_expected += len(expected)
        actual = {(f.line_no, f.rule) for f in lint_file(virtual, text)}
        for line_no, rule in sorted(expected - actual):
            failures.append(f"{path.name}:{line_no}: expected [{rule}] "
                            f"to fire (as {virtual}) but it did not")
        for line_no, rule in sorted(actual - expected):
            failures.append(f"{path.name}:{line_no}: [{rule}] fired but no "
                            f"expect-lint marker claims it (as {virtual})")
    for msg in failures:
        print(msg, file=sys.stderr)
    if failures:
        print(f"xplain_lint --self-test: FAILED ({len(failures)} "
              f"mismatch(es))", file=sys.stderr)
        return 1
    print(f"xplain_lint --self-test: OK ({len(files)} corpus files, "
          f"{total_expected} planted violations all fired, no over-fires)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve()
                    .parent.parent.parent,
                    help="repository root (default: two dirs up from here)")
    ap.add_argument("--self-test", action="store_true",
                    help="check the known-bad corpus fires every rule")
    args = ap.parse_args()
    root = args.root.resolve()
    return run_self_test(root) if args.self_test else run_tree(root)


if __name__ == "__main__":
    sys.exit(main())
