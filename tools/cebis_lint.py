#!/usr/bin/env python3
"""cebis-lint: the project-invariant linter for the cebis source tree.

clang-tidy (driven by the checked-in .clang-tidy) covers generic C++
defects; this linter enforces the contracts that are specific to cebis
and invisible to a generic checker. Each rule encodes a guarantee a
past PR established and CI pins only by sampling - the linter rejects
the *code shapes* that would break them, so a violation fails before a
golden anchor ever drifts:

  wall-clock          Result-affecting code (everything under src/
                      outside obs/, io/, net/) must not read wall
                      clocks (std::chrono::{system,steady,
                      high_resolution}_clock, ::time, gettimeofday,
                      clock_gettime). Simulated time comes from the
                      engine; a clock read in the hot path breaks the
                      byte-identical replay contract (PR 7) and the
                      parallel-sweep determinism contract (PR 6).
  ambient-randomness  No std::random_device / std::rand / srand
                      anywhere under src/. All randomness flows from
                      the seeded stats::Rng so every figure row is a
                      pure function of (seed, config) - the contract
                      behind every golden anchor since PR 1.
  unordered-iteration Result-affecting code must not declare
                      std::unordered_{map,set,multimap,multiset}
                      (hash-order iteration leaks into float
                      accumulation order and breaks byte-identity at
                      any thread count, PR 6), and no code under src/
                      may iterate one (range-for / .begin()) even in
                      the exempt dirs. Lookup-only use in obs/, io/,
                      net/ is fine.
  obs-read-back       obs:: taps are write-only instrumentation
                      (PR 8): MetricsRegistry::snapshot() may be
                      called from obs/ itself, io/ exposition, tests
                      and benches - never from instrumented code,
                      which must not make decisions from its own
                      telemetry.
  nodiscard-result    Functions declared in src/ headers that return a
                      result/report/outcome type (RunResult,
                      StorageOutcome, TariffBill, ...) must be
                      [[nodiscard]]: silently dropping a simulation
                      result is always a bug.
  using-namespace     No `using namespace` in src/ or in any header
                      (bench/example/test .cpp files may, they own
                      their translation unit).
  thread-detach       No std::thread::detach() under src/: every
                      thread the service spawns is joined on stop()
                      (PR 9's server/hub lifecycle); a detached thread
                      outlives its Impl and tears at exit.
  unreferenced-api    Nothing ships without a caller: a public function
                      declared in a src/ header must be named somewhere
                      in src/, bench/, examples/ or perfbench/ other
                      than its own declaration and out-of-line
                      definition. tests/ do not count - code only its
                      unit tests call is dead weight. Constructors,
                      destructors and operators are exempt. A
                      whole-tree pass: it reads perfbench/ for
                      references but lints nothing there. Matching is
                      by name, so a name any other code uses (a local
                      variable, a std:: member of the same name) counts
                      as referenced.
  frame-format-owner  The frame format has one owner: under src/, only
                      service/codec.h (the framing routine and the one
                      frame reader) and service/event_log.cpp (where
                      crc32 is defined) may call crc32( or name
                      kFrameHeaderSize. Code elsewhere that cuts or
                      checks frames is a second reader, whose bounds
                      and error wording drift from the first; read
                      frames through codec::FrameReader instead.

Waivers: a finding on line N is suppressed by a comment on line N or
N-1 of the form

    // cebis-lint: allow(rule-id) <reason>

The reason is mandatory - an unexplained waiver is itself a finding
(`waiver-missing-reason`). Waive sparingly; each waiver documents why
the invariant holds anyway (e.g. SweepStats wall-clock telemetry that
never feeds a result field).

Usage:
  python3 tools/cebis_lint.py [--root REPO_ROOT] [paths ...]
  python3 tools/cebis_lint.py --list-rules

With no paths, lints src/ plus the headers under bench/, examples/ and
tests/ (header-scoped rules only). unreferenced-api always reads the
whole product tree for references and reports only in the linted src/
headers. Exit 1 on any finding. Under GitHub Actions
(GITHUB_ACTIONS=true) findings are also emitted as ::error::
annotations, matching bench/check_bench_results.py.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import os
import pathlib
import re
import sys

# Directories under src/ whose code never affects simulation results:
# observability is write-only (PR 8), io/ is exposition/persistence
# formatting, net/ is transport whose payloads are produced elsewhere
# (timeouts and backoff there legitimately read real clocks).
RESULT_NEUTRAL_DIRS = {"obs", "io", "net"}

# Dirs allowed to call MetricsRegistry::snapshot(): the registry itself
# and the exposition writers. net/http_metrics.cpp is exposition too,
# but lives in net/ - it carries an explicit waiver instead, so the
# exemption stays narrow.
OBS_READ_DIRS = {"obs", "io"}

# Return types that carry a computation's result: dropping one is
# always a bug, so declarations returning them must be [[nodiscard]].
RESULT_TYPES = {
    "RunResult",
    "StorageOutcome",
    "SweepStats",
    "SavingsReport",
    "CarbonRunSummary",
    "WeatherRunSummary",
    "AggregationReport",
    "DrSettlement",
    "NegawattSettlement",
    "TariffBill",
    "MetricsSnapshot",
    "FeedReport",
    "ServerReport",
    "ForecastAccuracy",
    "HourlyEnergy",
    "Frame",
    "TelemetryFrame",
    "SealHeadroomFrame",
    "IngestStatusFrame",
    "RecordedSession",
    "LiveTelemetry",
    "Quartiles",
    "Summary",
    "ChangeStats",
    "PairCorrelation",
}

RULES = {
    "wall-clock": "wall-clock read in result-affecting code",
    "ambient-randomness": "ambient randomness source in src/",
    "unordered-iteration": "hash-ordered container in a determinism-relevant path",
    "obs-read-back": "obs snapshot() read from instrumented code",
    "nodiscard-result": "result-returning API missing [[nodiscard]]",
    "using-namespace": "`using namespace` in src/ or a header",
    "thread-detach": "detached thread in src/",
    "unreferenced-api": "public src/ function no product code names",
    "frame-format-owner": "frame cut or checked outside service/codec.h",
    "waiver-missing-reason": "cebis-lint waiver without a reason",
}

# Where a reference makes a product caller for unreferenced-api.
PRODUCT_DIRS = ("src", "bench", "examples", "perfbench")
CXX_SUFFIXES = (".h", ".hpp", ".cpp", ".cc")

# Words that can sit in declarator position (`void(int)`, `sizeof(x)`)
# without declaring a function.
CXX_KEYWORDS = {
    "alignas", "alignof", "auto", "bool", "char", "const", "constexpr",
    "decltype", "default", "delete", "double", "explicit", "float",
    "if", "int", "long", "noexcept", "requires", "return", "short",
    "signed", "sizeof", "static_assert", "switch", "throw", "unsigned",
    "void", "while", "for",
}
TOKEN_RE = re.compile(r"[A-Za-z_]\w*|::|->|\S")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")

WALL_CLOCK_RE = re.compile(
    r"\b(?:system_clock|steady_clock|high_resolution_clock"
    r"|gettimeofday|clock_gettime|timespec_get)\b"
    r"|(?:\bstd::|::)time\s*\(")
RANDOMNESS_RE = re.compile(
    r"\brandom_device\b|\bstd::rand\b|\bsrand\s*\(|(?<![\w:])rand\s*\(\)")
UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:multi)?(?:map|set)\s*<")
SNAPSHOT_CALL_RE = re.compile(r"[.>]\s*snapshot\s*\(")
USING_NAMESPACE_RE = re.compile(r"\busing\s+namespace\b")
DETACH_RE = re.compile(r"\.\s*detach\s*\(\s*\)")
FRAME_FORMAT_RE = re.compile(r"\bcrc32\s*\(|\bkFrameHeaderSize\b")
# The files that may frame, cut and checksum frames.
FRAME_FORMAT_OWNERS = {"src/service/codec.h", "src/service/event_log.cpp"}
WAIVER_RE = re.compile(r"cebis-lint:\s*allow\(([a-z\-,\s]+)\)\s*(.*)")
NODISCARD_DECL_RE = re.compile(
    r"^\s*(?:(?:virtual|static|constexpr|inline|friend|explicit)\s+)*"
    r"(?:const\s+)?((?:\w+::)*(\w+))\s*&?\s+(\w+)\s*\(")


@dataclasses.dataclass
class Finding:
    path: str  # repo-relative, forward slashes
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_noncode(lines: list[str]) -> list[str]:
    """Returns `lines` with comments and string literals blanked out.

    Keeps line count and column positions roughly intact so findings
    point at real lines. Handles // and /* */ comments and double-
    quoted strings (good enough for this tree; raw strings spanning
    lines would need a real lexer and the tree has none in src/).
    """
    out = []
    in_block = False
    for line in lines:
        buf = []
        i = 0
        in_str = False
        while i < len(line):
            ch = line[i]
            nxt = line[i + 1] if i + 1 < len(line) else ""
            if in_block:
                if ch == "*" and nxt == "/":
                    in_block = False
                    buf.append("  ")
                    i += 2
                    continue
                buf.append(" ")
                i += 1
                continue
            if in_str:
                if ch == "\\":
                    buf.append("  ")
                    i += 2
                    continue
                if ch == '"':
                    in_str = False
                    buf.append('"')
                    i += 1
                    continue
                buf.append(" ")
                i += 1
                continue
            if ch == "/" and nxt == "/":
                break  # rest of line is a comment
            if ch == "/" and nxt == "*":
                in_block = True
                buf.append("  ")
                i += 2
                continue
            if ch == '"':
                in_str = True
                buf.append('"')
                i += 1
                continue
            if ch == "'" and nxt and i + 2 < len(line):
                # Skip char literals like '"' or '\\n' wholesale.
                j = i + 1
                if line[j] == "\\" and j + 2 < len(line):
                    j += 1
                if j + 1 < len(line) and line[j + 1] == "'":
                    buf.append(" " * (j + 2 - i))
                    i = j + 2
                    continue
            buf.append(ch)
            i += 1
        out.append("".join(buf))
    return out


def collect_waivers(lines: list[str]) -> tuple[dict[int, set[str]], list[Finding]]:
    """Maps 1-based line numbers to the rule ids waived there.

    A waiver covers its own line and the next one, so it can sit on a
    dedicated comment line above the finding.
    """
    waived: dict[int, set[str]] = {}
    bad: list[tuple[int, str]] = []
    for idx, line in enumerate(lines, start=1):
        m = WAIVER_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        reason = m.group(2).strip()
        if not reason:
            bad.append((idx, ", ".join(sorted(rules))))
            continue
        for target in (idx, idx + 1):
            waived.setdefault(target, set()).update(rules)
    return waived, bad


def unordered_variable_names(code: list[str]) -> set[str]:
    """Names of variables/members/aliases declared with unordered types.

    Heuristic (no real parser): after each unordered_*<...> with
    balanced angle brackets on one line, take the next identifier; also
    tracks `using Alias = std::unordered_map<...>` alias names.
    """
    names: set[str] = set()
    alias_re = re.compile(r"\busing\s+(\w+)\s*=\s*(?:std::)?unordered_")
    for line in code:
        m = alias_re.search(line)
        if m:
            names.add(m.group(1))
        for decl in UNORDERED_DECL_RE.finditer(line):
            depth = 1
            i = decl.end()
            while i < len(line) and depth > 0:
                if line[i] == "<":
                    depth += 1
                elif line[i] == ">":
                    depth -= 1
                i += 1
            if depth != 0:
                continue  # template args continue on the next line
            m = re.match(r"\s*&?\s*(\w+)\s*[;,={(\[]", line[i:])
            if m:
                names.add(m.group(1))
    return names


def top_dir(rel: str) -> str:
    """First path component under src/ ('' when not under src/)."""
    parts = pathlib.PurePosixPath(rel).parts
    if len(parts) >= 2 and parts[0] == "src":
        return parts[1]
    return ""


def lint_file(rel: str, text: str) -> list[Finding]:
    raw = text.splitlines()
    code = strip_noncode(raw)
    waived, bad_waivers = collect_waivers(raw)
    findings = [
        Finding(rel, line, "waiver-missing-reason",
                f"waiver for ({rules}) carries no justification - "
                "explain why the invariant holds anyway")
        for line, rules in bad_waivers
    ]

    in_src = rel.startswith("src/")
    is_header = rel.endswith(".h")
    subsystem = top_dir(rel)
    result_affecting = in_src and subsystem not in RESULT_NEUTRAL_DIRS

    def report(line_no: int, rule: str, message: str) -> None:
        if rule in waived.get(line_no, set()):
            return
        findings.append(Finding(rel, line_no, rule, message))

    unordered_names = unordered_variable_names(code) if in_src else set()

    for idx, line in enumerate(code, start=1):
        if in_src and result_affecting and WALL_CLOCK_RE.search(line):
            report(idx, "wall-clock",
                   "wall-clock read outside obs/, io/, net/ - simulated "
                   "time comes from the engine; real time in a result "
                   "path breaks replay-equals-live (PR 7)")
        if in_src and RANDOMNESS_RE.search(line):
            report(idx, "ambient-randomness",
                   "draw randomness from the seeded stats::Rng - results "
                   "must be a pure function of (seed, config)")
        if in_src and result_affecting and UNORDERED_DECL_RE.search(line):
            report(idx, "unordered-iteration",
                   "hash-ordered container in result-affecting code - "
                   "iteration order leaks into accumulation order and "
                   "breaks byte-identity (PR 6); use std::map/std::set "
                   "or waive with a lookup-only justification")
        if in_src and unordered_names:
            range_for = re.search(r"\bfor\s*\(.*:\s*(\w+)\s*\)", line)
            begin_call = re.search(r"\b(\w+)\s*\.\s*c?begin\s*\(", line)
            for m, what in ((range_for, "range-for over"),
                            (begin_call, ".begin() on")):
                if m and m.group(1) in unordered_names:
                    report(idx, "unordered-iteration",
                           f"{what} hash-ordered container "
                           f"'{m.group(1)}' - hash iteration order is "
                           "not deterministic across implementations")
        if (in_src and subsystem not in OBS_READ_DIRS
                and SNAPSHOT_CALL_RE.search(line)):
            report(idx, "obs-read-back",
                   "snapshot() read outside obs/ and io/ - taps are "
                   "write-only from instrumented code (PR 8); code must "
                   "not steer on its own telemetry")
        if (in_src or is_header) and USING_NAMESPACE_RE.search(line):
            report(idx, "using-namespace",
                   "`using namespace` leaks names into every includer "
                   "(header) or the whole library TU (src/)")
        if (in_src and rel not in FRAME_FORMAT_OWNERS
                and FRAME_FORMAT_RE.search(line)):
            report(idx, "frame-format-owner",
                   "crc32( or kFrameHeaderSize outside service/codec.h "
                   "and service/event_log.cpp - a second place that cuts "
                   "or checks frames drifts from the one reader; use "
                   "codec::frame and codec::FrameReader")
        if in_src and DETACH_RE.search(line):
            report(idx, "thread-detach",
                   "detached threads outlive their owner and tear at "
                   "exit - join on stop() like Server/SubscriberHub")
        if in_src and is_header:
            m = NODISCARD_DECL_RE.match(line)
            if m and m.group(2) in RESULT_TYPES and m.group(3) != m.group(2):
                has_attr = "[[nodiscard]]" in raw[idx - 1] or (
                    idx >= 2 and "[[nodiscard]]" in raw[idx - 2])
                if not has_attr:
                    report(idx, "nodiscard-result",
                           f"'{m.group(3)}' returns {m.group(2)} - mark "
                           "it [[nodiscard]]: a dropped result is "
                           "always a bug")
    return findings


@dataclasses.dataclass
class Scope:
    kind: str  # "namespace", "class" or "code"
    name: str = ""  # a class's name: its constructors are exempt
    exported: bool = True  # declarations here are public API
    access_public: bool = True  # a class's current access section
    # The declaration state an initializer's braces interrupted.
    resume: tuple[list[str], int, bool] | None = None


def open_scope(outer: Scope, head: list[str]) -> Scope:
    """The scope a `{` opens after the declaration tokens `head`."""
    words = head
    if words[:1] == ["template"]:  # step over template <...>
        depth = 0
        for k, word in enumerate(words[1:], start=1):
            depth += (word == "<") - (word == ">")
            if depth == 0:
                words = words[k + 1:]
                break
    exported = outer.exported and outer.access_public
    if words[:1] == ["namespace"]:
        return Scope("namespace", exported=exported and len(words) > 1)
    if words[:1] == ["extern"]:
        return Scope("namespace", exported=exported)
    if words[:1] in (["class"], ["struct"], ["union"]) and "(" not in words:
        name = next((w for w in words[1:] if IDENT_RE.fullmatch(w)), "")
        return Scope("class", name=name, exported=exported,
                     access_public=words[0] != "class")
    return Scope("code")  # function bodies, enums, brace initializers


def scan_names(code: list[str]) -> tuple[list[tuple[int, str]],
                                          collections.Counter[str]]:
    """Splits one file's identifiers into function declarators and uses.

    Returns the exported function declarations - (line, name) of each
    function declared at namespace or public class scope, constructors,
    destructors and operators left out - and a count of every other
    identifier. A declarator is an identifier at declaration scope,
    outside parentheses, initializers and constructor init lists,
    followed by `(`. An out-of-line definition (`Class::name(`) is a
    declarator too, so neither it nor the declaration counts as a use.
    """
    toks = [(no, m.group(0)) for no, line in enumerate(code, start=1)
            if not line.lstrip().startswith("#")
            for m in TOKEN_RE.finditer(line)]
    decls: list[tuple[int, str]] = []
    uses: collections.Counter[str] = collections.Counter()
    stack = [Scope("namespace")]
    head: list[str] = []  # the declaration being read
    paren, after_eq, init_list = 0, False, False
    i = 0
    while i < len(toks):
        line, tok = toks[i]
        top = stack[-1]
        if top.kind == "code":
            if tok == "{":
                stack.append(Scope("code"))
            elif tok == "}":
                stack.pop()
                if top.resume is not None:
                    head, paren, after_eq = top.resume
            elif IDENT_RE.fullmatch(tok):
                uses[tok] += 1
            i += 1
            continue
        prev = toks[i - 1][1] if i else ""
        nxt = toks[i + 1][1] if i + 1 < len(toks) else ""
        if tok == "operator":
            # Operators are exempt: step over the symbol, `()` included,
            # to the parameter list.
            i += 3 if nxt == "(" else 1
            while i < len(toks) and toks[i][1] != "(":
                i += 1
            head.append(tok)
            continue
        if tok == "{":
            if paren or after_eq:
                stack.append(Scope("code", resume=(head, paren, after_eq)))
            else:
                stack.append(open_scope(top, head))
                head, init_list = [], False
            i += 1
            continue
        if tok == "}" or (tok == ";" and not paren):
            if tok == "}" and len(stack) > 1:
                stack.pop()
            head, paren, after_eq, init_list = [], 0, False, False
            i += 1
            continue
        if tok == ":" and not paren:
            if head in (["public"], ["private"], ["protected"]):
                top.access_public = head == ["public"]
                head = []
                i += 1
                continue
            init_list = True
        paren += (tok == "(") - (tok == ")")
        after_eq = after_eq or (tok == "=" and not paren)
        if IDENT_RE.fullmatch(tok):
            declarator = (nxt == "(" and not paren and not after_eq
                          and not init_list and prev not in (".", "->")
                          and tok not in CXX_KEYWORDS)
            if not declarator:
                uses[tok] += 1
            elif (prev not in ("::", "~") and tok != top.name
                  and top.exported and top.access_public
                  and not {"friend", "using", "typedef"} & set(head)):
                decls.append((line, tok))
        head.append(tok)
        i += 1
    return decls, uses


def unreferenced_api(sources: dict[str, str]) -> list[Finding]:
    """unreferenced-api over a whole tree, given as {repo path: text}.

    Only files under PRODUCT_DIRS are read, so a unit test is never a
    caller; only src/ headers declare the API that needs one.
    """
    uses: collections.Counter[str] = collections.Counter()
    declared: list[tuple[str, int, str]] = []
    for rel, text in sorted(sources.items()):
        if (rel.split("/", 1)[0] not in PRODUCT_DIRS
                or not rel.endswith(CXX_SUFFIXES)):
            continue
        decls, file_uses = scan_names(strip_noncode(text.splitlines()))
        uses.update(file_uses)
        if rel.startswith("src/") and rel.endswith(".h"):
            declared.extend((rel, line, name) for line, name in decls)
    findings = []
    for rel, line, name in declared:
        if uses[name]:
            continue
        waived, _ = collect_waivers(sources[rel].splitlines())
        if "unreferenced-api" in waived.get(line, set()):
            continue
        findings.append(Finding(
            rel, line, "unreferenced-api",
            f"'{name}' is named nowhere in src/, bench/, examples/ or "
            "perfbench/ - nothing ships without a caller: delete it with "
            "its unit tests, or waive with the reason a test needs it"))
    return findings


def product_sources(root: pathlib.Path) -> dict[str, str]:
    """Every C++ file under PRODUCT_DIRS, keyed by repo-relative path."""
    sources = {}
    for top in PRODUCT_DIRS:
        for path in sorted((root / top).rglob("*")):
            if path.suffix in CXX_SUFFIXES and path.is_file():
                rel = path.relative_to(root).as_posix()
                sources[rel] = path.read_text(encoding="utf-8")
    return sources


def default_paths(root: pathlib.Path) -> list[pathlib.Path]:
    paths = sorted((root / "src").rglob("*.cpp")) + sorted(
        (root / "src").rglob("*.h"))
    for extra in ("bench", "examples", "tests"):
        d = root / extra
        if d.is_dir():
            paths.extend(sorted(d.rglob("*.h")))
    return paths


def lint_paths(root: pathlib.Path,
               paths: list[pathlib.Path]) -> list[Finding]:
    findings: list[Finding] = []
    for path in paths:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
        findings.extend(lint_file(rel, path.read_text(encoding="utf-8")))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="cebis project-invariant linter")
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repository root (default: this script's repo)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule ids and exit")
    parser.add_argument("paths", nargs="*", type=pathlib.Path,
                        help="files to lint (default: src/ + repo headers)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, summary in RULES.items():
            print(f"{rule}: {summary}")
        return 0

    paths = args.paths or default_paths(args.root)
    findings = lint_paths(args.root, paths)
    linted = {p.resolve().relative_to(args.root.resolve()).as_posix()
              for p in paths}
    findings += [f for f in unreferenced_api(product_sources(args.root))
                 if f.path in linted]
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    annotate = os.environ.get("GITHUB_ACTIONS") == "true"
    for f in findings:
        print(f)
        if annotate:
            print(f"::error file={f.path},line={f.line}::[{f.rule}] "
                  f"{f.message}")
    n_files = len(paths)
    if findings:
        print(f"cebis-lint: {len(findings)} finding(s) in {n_files} files")
        return 1
    print(f"cebis-lint: clean ({n_files} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
