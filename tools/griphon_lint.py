#!/usr/bin/env python3
"""griphon-lint: repo-specific invariants clang-tidy cannot express.

Checks (DESIGN.md §10):

  metric-name      Metric names registered on telemetry::MetricsRegistry must
                   follow the `griphon_<layer>_<name>` scheme (lower-case
                   [a-z0-9_], >= 3 tokens), and <layer> must come from the
                   known-layer allowlist (KNOWN_LAYERS below — includes the
                   observability families `griphon_slo_*` and
                   `griphon_sampler_*`). Every "griphon_..." literal in
                   src/ is checked in full, wherever it appears: passed to
                   counter()/gauge()/histogram() or held by a cached handle
                   (CachedCounter{...}, KeyedCounters{...},
                   CachedLookup(...)). Other literals passed to a register
                   call are checked too. Dynamic names built from a literal
                   prefix (e.g. "griphon_ems_" + domain + "_suffix") have
                   prefix and suffix literals checked against the same
                   grammar.
  banned-call      Library code under src/ must not call rand()/srand()
                   (use griphon::Rng), time() (use sim::Engine::now()), or
                   write to std::cout (route through telemetry).
                   Tests, benches and examples are exempt: they own stdout.
  pragma-once      Every header uses `#pragma once` (before any include),
                   never #ifndef guards.
  include-order    In .cpp files: the file's own header first, then a block
                   of <angle> includes, then "quoted" project includes —
                   no angle include after the first quoted one.
  nodiscard        Every function declared in a src/ header returning
                   Result<T>, Status, ErrorCode or FaultDecision carries
                   [[nodiscard]]. Ignoring one of these is always a latent
                   bug in a setup or restore path (see ISSUE 3 / DESIGN.md
                   §10); a dropped FaultDecision means a chaos hook's
                   verdict (drop/duplicate/delay a frame) is silently
                   ignored and fault injection goes dark (DESIGN.md §12).
  no-artifacts     No build artifacts tracked by git: nothing under build*/,
                   no object/archive/ninja/CMake-cache files, no binary
                   blobs (NUL byte in the first 8 KiB).
  raw-sync         Library code under src/ runs on one thread, the
                   sim::Engine loop (DESIGN.md §15): no std::mutex /
                   std::lock_guard / std::thread / std::condition_variable
                   / std::atomic... there. Parallel work means separate
                   processes. Tests/benches may spawn std::thread.
  detached-thread  No `.detach()` anywhere in the tree: a detached thread
                   outlives the scope that can join it, which breaks both
                   TSan shutdown and run-to-run determinism.
  mutable-global   No static-storage mutable data in src/ (`static` /
                   `inline static` declarations that are not const or
                   constexpr): hidden global state outlives the
                   simulation that wrote it and breaks replay determinism.
                   Static member *functions* are fine.
  conn-state       Library code under src/ must not assign a connection
                   state (`.state = ConnectionState::` / `->state =
                   ConnectionState::`) outside GriphonController::set_state,
                   the only writer of the live-connection index and the
                   checker of the transition table (DESIGN.md §7). A
                   direct assignment would bypass both.
  ems-domain-name  The EMS domain names "roadm-ems", "fxc-ems", "otn-ems"
                   and "nte-ems" appear as string literals in src/ only
                   where NetworkModel creates the EMS servers
                   (src/core/network_model.cpp); everything else reads
                   them from EmsServer::name(), so the controller's breaker
                   keys, span actors and probes cannot drift apart.
                   Comments are exempt.
  unset-knob       Every field of a `Params`, `Config`, `Options` or
                   `*Policy` struct in a src/ header is set somewhere in
                   src/, tests/, bench/ or examples/: assigned directly
                   (`p.field =`), through nested access
                   (`p.outer.field =`), by a designated initializer, or
                   by a positional aggregate initializer (`Params{a, b}`
                   sets the first two fields). A knob nothing sets has one
                   value and belongs in a constexpr at its use. Fields
                   match by name, so a name set on another struct hides an
                   unset one; a positional initializer is seen only where
                   the struct's name precedes its braces.

Usage:
    tools/griphon_lint.py [--report griphon_lint_report.txt] [paths...]
    tools/griphon_lint.py --self-test   # run fixture-based negative tests

Exit status: 0 clean, 1 findings, 2 usage error.
Suppression: a finding line may be waived with a trailing
`// griphon-lint: allow(<check-id>) <justification>` comment; the
justification is mandatory and findings without one stay fatal.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIRS = ("src", "tests", "bench", "examples")

# --- shared helpers ---------------------------------------------------------


def repo_files(subdirs: tuple[str, ...], exts: tuple[str, ...]) -> list[str]:
    out: list[str] = []
    for sub in subdirs:
        root = os.path.join(REPO_ROOT, sub)
        for dirpath, _dirnames, filenames in os.walk(root):
            for name in sorted(filenames):
                if name.endswith(exts):
                    out.append(os.path.join(dirpath, name))
    return sorted(out)


def strip_comments(text: str, keep_strings: bool = False) -> str:
    """Blank out // and /* */ comments and (unless `keep_strings`)
    string/char literals, preserving line structure so reported line
    numbers stay exact."""

    out: list[str] = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append('"')
                i += 1
                continue
            if c == "'":
                # A quote directly after an identifier char is a C++14 digit
                # separator (64'000), not a char literal.
                prev = out[-1] if out else ""
                if not (prev.isalnum() or prev == "_"):
                    state = "chr"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state == "str":
            if c == "\\":
                out.append(text[i:i + 2] if keep_strings else "  ")
                i += 2
                continue
            if c == '"':
                state = "code"
                out.append('"')
            else:
                out.append(c if keep_strings or c == "\n" else " ")
        elif state == "chr":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                state = "code"
                out.append("'")
            else:
                out.append(" " if c != "\n" else c)
        i += 1
    return "".join(out)


class Finding:
    def __init__(self, path: str, line: int, check: str, message: str):
        self.path = os.path.relpath(path, REPO_ROOT)
        self.line = line
        self.check = check
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


ALLOW_RE = re.compile(
    r"//\s*griphon-lint:\s*allow\((?P<check>[a-z-]+)\)\s+(?P<why>\S.*)"
)


def allowed(lines: list[str], finding: Finding) -> bool:
    """True if the finding's source line carries a justified allow-comment."""
    if finding.line - 1 >= len(lines):
        return False
    m = ALLOW_RE.search(lines[finding.line - 1])
    return bool(m) and m.group("check") == finding.check


# --- metric-name ------------------------------------------------------------

FULL_NAME_RE = re.compile(r"^griphon(_[a-z0-9]+){2,}$")
PREFIX_NAME_RE = re.compile(r"^griphon(_[a-z0-9]+)+_$")
SUFFIX_NAME_RE = re.compile(r"^[a-z0-9]+(_[a-z0-9]+)*$")

# The <layer> token of griphon_<layer>_<name>. A metric outside these
# families is either a typo (griphon_slo vs griphon_sl0) or a new layer —
# new layers are fine, but must be added here deliberately so the family
# namespace stays curated (DESIGN.md §10, §14).
KNOWN_LAYERS = frozenset({
    "bod",        # reservation calendar / admission / transfer scheduler
    "chaos",      # fault injector
    "controller", # GriphonController setup/restore/resync
    "ems",        # per-domain EMS servers
    "failure",    # failure manager / alarm correlation
    "otn",        # OTN mux layer
    "plant",      # inventory / optical plant gauges
    "portal",     # customer-facing portal
    "reopt",      # global re-optimization / defragmentation
    "restoration", # storm pipeline: queue/backlog/in-flight/preemptions
    "rwa",        # routing + wavelength assignment
    "sampler",    # telemetry::GaugeSampler self-metrics
    "slo",        # telemetry::SloMonitor alert/violation metrics
})


def layer_of(name: str) -> str:
    """The <layer> token of a scheme-conformant name or prefix."""
    parts = name.split("_")
    return parts[1] if len(parts) > 1 else ""

REGISTER_LITERAL_RE = re.compile(
    r"\b(?:counter|gauge|histogram)\s*\(\s*\"(?P<name>[^\"]*)\"", re.S
)
REGISTER_DYNAMIC_RE = re.compile(
    r"\b(?:counter|gauge|histogram)\s*\(\s*(?P<var>\w+)\s*\+\s*"
    r"\"(?P<suffix>[^\"]*)\"",
    re.S,
)
GRIPHON_LITERAL_RE = re.compile(r"\"(?P<lit>griphon_[^\"]*)\"")

# The scheme implementation and its tests legitimately mention bare
# "griphon_" fragments (name_ok parsing, negative test cases).
METRIC_NAME_EXEMPT = (
    os.path.join("src", "telemetry", "metrics.cpp"),
    os.path.join("src", "telemetry", "metrics.hpp"),
)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def check_metric_name(findings: list[Finding], path: str, text: str,
                      pos: int, name: str, what: str) -> None:
    """Findings for one metric name (or, ending in `_`, a name prefix)."""
    prefix = name.endswith("_")
    if not (PREFIX_NAME_RE if prefix else FULL_NAME_RE).match(name):
        message = (f'{what} "{name}" must be griphon_<layer>_...' if prefix
                   else f'"{name}" violates griphon_<layer>_<name> '
                   "(lower-case, >= 3 tokens)")
    elif layer_of(name) not in KNOWN_LAYERS:
        message = (f'{what + " " if prefix else ""}"{name}": layer '
                   f'"{layer_of(name)}" is not in the known-layer allowlist '
                   "(add to KNOWN_LAYERS in tools/griphon_lint.py if "
                   "intentional)")
    else:
        return
    findings.append(
        Finding(path, line_of(text, pos), "metric-name", message))


def check_metric_names(findings: list[Finding]) -> None:
    for path in repo_files(("src",), (".cpp", ".hpp")):
        rel = os.path.relpath(path, REPO_ROOT)
        if rel in METRIC_NAME_EXEMPT:
            continue
        with open(path, encoding="utf-8") as fh:
            text = strip_comments(fh.read(), keep_strings=True)
        # Literal names outside the griphon_ namespace, where they are
        # registered; griphon_* literals are checked wherever they appear.
        for m in REGISTER_LITERAL_RE.finditer(text):
            if not m.group("name").startswith("griphon_"):
                check_metric_name(findings, path, text, m.start(),
                                  m.group("name"), "metric name")
        for m in REGISTER_DYNAMIC_RE.finditer(text):
            suffix = m.group("suffix")
            if not SUFFIX_NAME_RE.match(suffix):
                findings.append(
                    Finding(
                        path,
                        line_of(text, m.start()),
                        "metric-name",
                        f'dynamic metric suffix "{suffix}" is not '
                        "lower-case [a-z0-9_] tokens",
                    )
                )
        # Every griphon_* literal is a metric name: registered directly,
        # held by a cached handle (CachedCounter{...}, KeyedCounters{...},
        # CachedLookup(...)) or, ending in '_', a prefix feeding a dynamic
        # registration.
        for m in GRIPHON_LITERAL_RE.finditer(text):
            check_metric_name(findings, path, text, m.start(),
                              m.group("lit"), "metric-name prefix")


# --- banned-call ------------------------------------------------------------

BANNED = (
    (
        re.compile(r"(?<![\w.:>])\b(?:rand|srand)\s*\("),
        "rand()/srand() — use griphon::Rng (deterministic, seedable)",
    ),
    (
        re.compile(r"(?<![\w.:>])\btime\s*\("),
        "time() — simulation code must use sim::Engine::now()",
    ),
    (
        re.compile(r"\bstd::cout\b"),
        "std::cout in library code — route through telemetry",
    ),
)


def check_banned_calls(findings: list[Finding]) -> None:
    for path in repo_files(("src",), (".cpp", ".hpp")):
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
        text = strip_comments(raw)
        raw_lines = raw.splitlines()
        for pattern, why in BANNED:
            for m in pattern.finditer(text):
                f = Finding(path, line_of(text, m.start()), "banned-call", why)
                if not allowed(raw_lines, f):
                    findings.append(f)


# --- pragma-once + include-order -------------------------------------------

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(?P<inc>[<"][^>"]+[>"])')
GUARD_RE = re.compile(r"^\s*#\s*ifndef\s+\w+_(?:H|HPP|H_|HPP_)\b")


def check_headers(findings: list[Finding]) -> None:
    for path in repo_files(SOURCE_DIRS, (".hpp", ".h")):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        pragma_line = None
        first_include = None
        for idx, line in enumerate(lines, start=1):
            if pragma_line is None and re.match(r"^\s*#\s*pragma\s+once", line):
                pragma_line = idx
            if first_include is None and INCLUDE_RE.match(line):
                first_include = idx
            if GUARD_RE.match(line):
                findings.append(
                    Finding(path, idx, "pragma-once",
                            "#ifndef include guard — use #pragma once")
                )
        if pragma_line is None:
            findings.append(
                Finding(path, 1, "pragma-once", "header lacks #pragma once")
            )
        elif first_include is not None and first_include < pragma_line:
            findings.append(
                Finding(path, pragma_line, "pragma-once",
                        "#pragma once must precede the first #include")
            )


def check_include_order(findings: list[Finding]) -> None:
    for path in repo_files(SOURCE_DIRS, (".cpp",)):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        includes: list[tuple[int, str]] = []
        for idx, line in enumerate(lines, start=1):
            m = INCLUDE_RE.match(line)
            if m:
                includes.append((idx, m.group("inc")))
        if not includes:
            continue
        rel = os.path.relpath(path, REPO_ROOT)
        own = None
        if rel.startswith("src" + os.sep):
            # src/core/rwa.cpp must include "core/rwa.hpp" first.
            own = '"' + rel[len("src" + os.sep):-len(".cpp")] + '.hpp"'
            if os.path.exists(os.path.join(REPO_ROOT, "src", own.strip('"'))):
                if includes[0][1] != own:
                    findings.append(
                        Finding(path, includes[0][0], "include-order",
                                f"own header {own} must be the first include")
                    )
            else:
                own = None
        rest = includes[1:] if own is not None else includes
        seen_quote = False
        for idx, inc in rest:
            if inc.startswith('"'):
                seen_quote = True
            elif seen_quote:
                findings.append(
                    Finding(path, idx, "include-order",
                            f"system include {inc} after project includes — "
                            "group <system> before \"project\"")
                )


# --- nodiscard --------------------------------------------------------------

RESULT_DECL_RE = re.compile(
    r"(?P<ret>\bResult<[^;(){}]*?>|\bStatus\b|\bErrorCode\b|"
    r"\b(?:proto::)?FaultDecision\b)\s+"
    r"(?P<name>~?\w+)\s*\("
)
# Tokens that, appearing right before the return type, mean this is not a
# plain function declaration needing the attribute here.
PRECEDING_OK_RE = re.compile(
    r"(?:\[\[nodiscard\]\]|using\s+\w+\s*=|return|friend|::)\s*"
    r"(?:static\s+|virtual\s+|constexpr\s+|inline\s+|explicit\s+)*$"
)


def check_nodiscard(findings: list[Finding]) -> None:
    for path in repo_files(("src",), (".hpp",)):
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
        text = strip_comments(raw)
        raw_lines = raw.splitlines()
        for m in RESULT_DECL_RE.finditer(text):
            ret, name = m.group("ret"), m.group("name")
            # Constructors / conversion declarations of the Result types
            # themselves ("Status(Error)") never match: name != type here
            # because the regex needs `<type> <name>(`.
            if name in ("Result", "Status", "ErrorCode", "FaultDecision"):
                continue
            before = text[: m.start()]
            # Look back past whitespace/specifiers for [[nodiscard]] or an
            # excluding context (using-alias, return statement, qualified
            # out-of-line definition, std::function signature).
            tail = before[-120:]
            if PRECEDING_OK_RE.search(tail):
                continue
            # Inside a template argument list e.g. std::function<void(Result<X>)>
            open_angle = tail.rfind("<")
            close_angle = tail.rfind(">")
            if open_angle > close_angle and "function" in tail:
                continue
            f = Finding(
                path,
                line_of(text, m.start()),
                "nodiscard",
                f"{ret} {name}(...) must be [[nodiscard]] — ignoring a "
                "Result/Status/ErrorCode is a latent provisioning bug",
            )
            if not allowed(raw_lines, f):
                findings.append(f)


# --- no-artifacts -----------------------------------------------------------

ARTIFACT_PATH_RE = re.compile(
    r"^build|(\.o|\.a|\.so|\.obj|\.ninja_deps|\.ninja_log)$|CMakeCache\.txt$"
)


def check_no_artifacts(findings: list[Finding]) -> None:
    try:
        tracked = subprocess.run(
            ["git", "ls-files", "-z"],
            capture_output=True,
            text=True,
            check=True,
            cwd=REPO_ROOT,
        ).stdout.split("\0")
    except (subprocess.CalledProcessError, FileNotFoundError):
        return  # not a git checkout (e.g. source tarball): nothing to check
    for rel in tracked:
        if not rel:
            continue
        if ARTIFACT_PATH_RE.search(rel):
            findings.append(
                Finding(os.path.join(REPO_ROOT, rel), 1, "no-artifacts",
                        "build artifact tracked by git — remove from index")
            )
            continue
        full = os.path.join(REPO_ROOT, rel)
        if not os.path.isfile(full):
            continue
        with open(full, "rb") as fh:
            if b"\0" in fh.read(8192):
                findings.append(
                    Finding(full, 1, "no-artifacts",
                            "binary blob tracked by git")
                )


# --- raw-sync ---------------------------------------------------------------

RAW_SYNC_RE = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable(?:_any)?|thread|jthread|atomic\w*)\b"
)


def check_raw_sync(findings: list[Finding]) -> None:
    for path in repo_files(("src",), (".cpp", ".hpp")):
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
        text = strip_comments(raw)
        raw_lines = raw.splitlines()
        for m in RAW_SYNC_RE.finditer(text):
            f = Finding(
                path,
                line_of(text, m.start()),
                "raw-sync",
                f"{m.group(0)} in library code — src/ runs on one thread, "
                "the sim::Engine loop; run parallel work as separate "
                "processes (DESIGN.md §15)",
            )
            if not allowed(raw_lines, f):
                findings.append(f)


# --- detached-thread --------------------------------------------------------

DETACH_RE = re.compile(r"\.\s*detach\s*\(\s*\)")


def check_detached_thread(findings: list[Finding]) -> None:
    for path in repo_files(SOURCE_DIRS, (".cpp", ".hpp")):
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
        text = strip_comments(raw)
        raw_lines = raw.splitlines()
        for m in DETACH_RE.finditer(text):
            f = Finding(
                path,
                line_of(text, m.start()),
                "detached-thread",
                "detached thread — nothing can join it, breaking TSan "
                "shutdown and replay determinism; keep the handle and join",
            )
            if not allowed(raw_lines, f):
                findings.append(f)


# --- mutable-global ---------------------------------------------------------

# `static <type> <name> = ...;` / `... {...};` / `...;` where the type is not
# const/constexpr and the declarator is data (no '(' — static member
# *functions* and factories are fine). Applied per line on comment-stripped
# text; multi-line declarations are rare enough that the annotation review
# catches them.
STATIC_DATA_RE = re.compile(
    r"^\s*(?:inline\s+)?static\s+(?!(?:const|constexpr)\b)"
    r"[\w:<>,&*]+(?:\s+[\w:<>,&*]+)*?\s+\w+\s*(?:=|\{|;)",
    re.M,
)


def check_mutable_global(findings: list[Finding]) -> None:
    for path in repo_files(("src",), (".cpp", ".hpp")):
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
        text = strip_comments(raw)
        raw_lines = raw.splitlines()
        for m in STATIC_DATA_RE.finditer(text):
            f = Finding(
                path,
                line_of(text, m.start()),
                "mutable-global",
                "static-storage mutable data — hidden global state breaks "
                "replay determinism; keep the state in the owning object",
            )
            if not allowed(raw_lines, f):
                findings.append(f)


# --- conn-state -------------------------------------------------------------

CONN_STATE_RE = re.compile(r"(?:\.|->)\s*state\s*=(?!=)\s*ConnectionState::")
SET_STATE_DEF_RE = re.compile(r"\bGriphonController::set_state\s*\(")


def function_bodies(text: str, header: re.Pattern) -> list[tuple[int, int]]:
    """[start, end) offsets of the brace-delimited bodies of every function
    definition whose signature `header` matches."""
    spans: list[tuple[int, int]] = []
    for m in header.finditer(text):
        open_at = text.find("{", m.end())
        if open_at < 0 or ";" in text[m.end():open_at]:
            continue  # a declaration, not a definition
        depth = 0
        for i in range(open_at, len(text)):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    spans.append((open_at, i + 1))
                    break
    return spans


def check_conn_state(findings: list[Finding]) -> None:
    for path in repo_files(("src",), (".cpp", ".hpp")):
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
        text = strip_comments(raw)
        raw_lines = raw.splitlines()
        writer = function_bodies(text, SET_STATE_DEF_RE)
        for m in CONN_STATE_RE.finditer(text):
            if any(a <= m.start() < b for a, b in writer):
                continue
            f = Finding(
                path,
                line_of(text, m.start()),
                "conn-state",
                "connection state assigned directly — call "
                "GriphonController::set_state so the live-connection index "
                "and the transition table see it (DESIGN.md §7)",
            )
            if not allowed(raw_lines, f):
                findings.append(f)


# --- ems-domain-name --------------------------------------------------------

EMS_DOMAIN_RE = re.compile(r'"(?:roadm|fxc|otn|nte)-ems"')
EMS_DOMAIN_OWNER = os.path.join("src", "core", "network_model.cpp")


def check_ems_domain_name(findings: list[Finding]) -> None:
    for path in repo_files(("src",), (".cpp", ".hpp")):
        if os.path.relpath(path, REPO_ROOT) == EMS_DOMAIN_OWNER:
            continue
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
        text = strip_comments(raw, keep_strings=True)
        raw_lines = raw.splitlines()
        for m in EMS_DOMAIN_RE.finditer(text):
            f = Finding(
                path,
                line_of(text, m.start()),
                "ems-domain-name",
                f"EMS domain literal {m.group(0)} — read the name from the "
                "EmsServer NetworkModel creates (EmsServer::name()) so every "
                "key for the domain stays one spelling",
            )
            if not allowed(raw_lines, f):
                findings.append(f)


# --- unset-knob -------------------------------------------------------------

# A configuration struct: Params, Config, Options or any *Policy.
KNOB_STRUCT_RE = re.compile(
    r"\bstruct\s+(?P<name>Params|Config|Options|\w+Policy)\s*\{")
TYPE_DEF_RE = re.compile(r"\b(?:struct|class)\s+(?P<name>\w+)[^;{()]*\{")
# Statements inside a struct body that declare no data member.
NOT_A_FIELD_RE = re.compile(
    r"^(?:using|typedef|static|friend|template|struct|class|enum|union)\b")
# An assignment through a member-access chain: every member named in the
# chain is set (`p.field =`, and `p.outer.field =` sets `outer` too).
ASSIGN_CHAIN_RE = re.compile(
    r"((?:(?:\.|->)\s*\w+\s*(?:\[[^\]]*\]\s*)*)+)"
    r"(?:[-+*/%|&^]|<<|>>)?=(?!=)")
POSITIONAL_INIT_RE = r"\b{name}\b\s*(?:\w+\s*)?(?:=\s*)?\{{"
QUALIFIER_RE = re.compile(r"(?:\b(?P<outer>\w+)\s*::\s*|\bstruct\s+)$")


def closing_brace(text: str, open_at: int) -> int:
    """Offset of the brace closing the one at `open_at`."""
    depth = 0
    for i in range(open_at, len(text)):
        if text[i] in "({[":
            depth += 1
        elif text[i] in ")}]":
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


def struct_fields(body: str) -> list[tuple[str, int]]:
    """(name, offset) of every data member declared at the top level of a
    struct body (comments and strings already blanked). Nested types,
    member functions, aliases and static members are skipped."""
    fields: list[tuple[str, int]] = []
    depth = 0
    start = 0

    def finish(stmt: str, at: int) -> None:
        stmt = re.sub(r"\[\[.*?\]\]", " ", stmt).strip()
        stmt = re.sub(r"^(?:public|private|protected)\s*:", "", stmt).strip()
        if not stmt or NOT_A_FIELD_RE.match(stmt) or "operator" in stmt:
            return
        # The declarator ends where its initializer starts.
        d = 0
        for i, ch in enumerate(stmt):
            if ch in "([":
                d += 1
            elif ch in ")]":
                d -= 1
            elif d == 0 and ch in "={":
                stmt = stmt[:i]
                break
        if "(" in stmt:
            return  # a member function
        m = re.search(r"(\w+)\s*(?:\[[^\]]*\])?\s*$", stmt)
        if m and not m.group(1).isdigit():
            fields.append((m.group(1), at + body[at:].find(m.group(1))))

    for i, ch in enumerate(body):
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
            # An inline member function body ends its declaration with no
            # trailing ';'.
            if depth == 0 and ch == "}":
                head = body[start:i]
                head = head[:head.find("{")] if "{" in head else head
                if "(" in head and "=" not in head:
                    start = i + 1
        elif ch == ";" and depth == 0:
            finish(body[start:i], start)
            start = i + 1
    return fields


def knob_structs(text: str) -> list[tuple[str, str, list[tuple[str, int]]]]:
    """(enclosing type, struct name, fields) of every configuration struct
    defined in a header."""
    types = []
    for m in TYPE_DEF_RE.finditer(text):
        open_at = m.end() - 1
        types.append((m.group("name"), open_at, closing_brace(text, open_at)))
    out = []
    for m in KNOB_STRUCT_RE.finditer(text):
        open_at = m.end() - 1
        close = closing_brace(text, open_at)
        outer = ""
        for name, a, b in types:
            if a < m.start() and close <= b:
                outer = name  # innermost wins: later starts nest deeper
        body = text[open_at + 1:close]
        fields = [(f, open_at + 1 + off) for f, off in struct_fields(body)]
        out.append((outer, m.group("name"), fields))
    return out


def positional_inits(texts: list[str], name: str) -> list[tuple[str, int]]:
    """(qualifier, element count) of every positional aggregate
    initializer of a struct called `name` across `texts`; the qualifier is
    the enclosing type named before `::`, or "" when unqualified. The
    fields such an initializer sets are the first `count` ones."""
    pattern = re.compile(POSITIONAL_INIT_RE.format(name=re.escape(name)))
    out = []
    for text in texts:
        for m in pattern.finditer(text):
            q = QUALIFIER_RE.search(text, max(0, m.start() - 80), m.start())
            if q and q.group("outer") is None:
                continue  # `struct Name {`: the definition itself
            open_at = m.end() - 1
            inner = text[open_at + 1:closing_brace(text, open_at)].strip()
            if not inner or inner.startswith("."):
                continue  # empty, or designated (seen as `.field =`)
            depth = 0
            count = 1
            for ch in inner:
                if ch in "({[<":
                    depth += 1
                elif ch in ")}]>":
                    depth -= 1
                elif ch == "," and depth == 0:
                    count += 1
            out.append((q.group("outer") if q else "", count))
    return out


def check_unset_knobs(findings: list[Finding]) -> None:
    texts = []
    assigned: set[str] = set()
    for path in repo_files(SOURCE_DIRS, (".cpp", ".hpp", ".h")):
        with open(path, encoding="utf-8") as fh:
            texts.append(strip_comments(fh.read()))
        for m in ASSIGN_CHAIN_RE.finditer(texts[-1]):
            assigned.update(re.findall(r"(?:\.|->)\s*(\w+)", m.group(1)))
    inits: dict[str, list[tuple[str, int]]] = {}
    for path in repo_files(("src",), (".hpp",)):
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
        text = strip_comments(raw)
        raw_lines = raw.splitlines()
        for outer, name, fields in knob_structs(text):
            if name not in inits:
                inits[name] = positional_inits(texts, name)
            positional = max((n for q, n in inits[name] if q in ("", outer)),
                             default=0)
            for index, (field, at) in enumerate(fields):
                if index < positional or field in assigned:
                    continue
                f = Finding(
                    path,
                    line_of(text, at),
                    "unset-knob",
                    f"{outer + '::' if outer else ''}{name}::{field} is "
                    "set nowhere in src/, tests/, bench/ or examples/ — "
                    "make it a constexpr at its use",
                )
                if not allowed(raw_lines, f):
                    findings.append(f)


# --- self-test --------------------------------------------------------------

# (fixture source, relative path, check, expected finding count). Each bad
# fixture also carries an allow-comment twin proving suppression works.
SELF_TEST_FIXTURES = (
    (
        "#pragma once\n#include <mutex>\nstd::mutex bad_mu;\n"
        "std::lock_guard<std::mutex> g(bad_mu);\n"
        "std::thread t;  // griphon-lint: allow(raw-sync) fixture waiver\n",
        os.path.join("src", "core", "fixture_raw_sync.hpp"),
        "raw-sync",
        3,  # mutex + mutex again inside lock_guard<> counts once per token
    ),
    (
        "#pragma once\nvoid f() { worker.detach(); }\n",
        os.path.join("src", "core", "fixture_detach.hpp"),
        "detached-thread",
        1,
    ),
    (
        "#pragma once\nstatic int counter = 0;\n"
        "inline static double scale;\n"
        "static const int kOk = 1;\n"
        "static constexpr int kAlsoOk = 2;\n"
        "class C { static int helper(); };\n",
        os.path.join("src", "core", "fixture_global.hpp"),
        "mutable-global",
        2,
    ),
    (
        "#pragma once\n#include <atomic>\nstd::atomic<int> hits{0};\n",
        os.path.join("src", "core", "fixture_atomic.hpp"),
        "raw-sync",
        1,
    ),
    (
        "#include <atomic>\nstd::atomic<int> hits{0};\n",
        os.path.join("tests", "fixture_atomic.cpp"),
        "raw-sync",
        0,  # tests/ may share state across the threads they start
    ),
    (
        "void GriphonController::set_state(Connection& c, State to);\n"
        "void GriphonController::set_state(Connection& c, State to) {\n"
        "  if (to == ConnectionState::kActive) {\n"
        "    c.state = ConnectionState::kActive;\n  }\n}\n"
        "void f(Connection& c, Connection* p) {\n"
        "  c.state = ConnectionState::kFailed;\n"
        "  p -> state=ConnectionState::kReleased;\n"
        "  if (c.state == ConnectionState::kFailed) return;\n"
        "  c.state = ConnectionState::kActive;  "
        "// griphon-lint: allow(conn-state) fixture waiver\n"
        "}\n",
        os.path.join("src", "core", "fixture_conn_state.cpp"),
        "conn-state",
        2,  # inside set_state, comparisons and the waived line are fine
    ),
    (
        'const char* a = "roadm-ems";\n'
        'f("fxc-ems", "otn-ems");\n'
        '// a comment may say "nte-ems"\n'
        '/* or "roadm-ems" */ const char* b = "nte-ems-x";\n'
        'const char* c = "nte-ems";  '
        "// griphon-lint: allow(ems-domain-name) fixture waiver\n",
        os.path.join("src", "reopt", "fixture_ems_domain.cpp"),
        "ems-domain-name",
        3,  # comments, a longer literal and the waived line are fine
    ),
    (
        'make_ems("roadm-ems");\n',
        os.path.join("src", "core", "network_model.cpp"),
        "ems-domain-name",
        0,  # the one place the servers are named
    ),
    (
        'KeyedCounters bad_case{"griphon_Bod_x_total", "h"};\n'
        'CachedCounter bad_layer{"griphon_nolayer_x_total", "h"};\n'
        'CachedLookup<const Counter*> too_short("griphon_bod");\n'
        'CachedCounter fine{"griphon_bod_ok_total", "h"};\n'
        'm.counter("bad_name", "h");\n'
        '// a comment may say "griphon_Nope"\n',
        os.path.join("src", "bod", "fixture_metric_names.cpp"),
        "metric-name",
        4,  # handle initializers count; the good name and comment do not
    ),
    (
        "#pragma once\n"
        "struct Widget {\n"
        "  struct Params {\n"
        "    int positional = 1;\n"
        "    int direct = 2;\n"
        "    int unset = 3;\n"
        "    int waived = 4;  // griphon-lint: allow(unset-knob) fixture\n"
        "    static constexpr int kNotAField = 5;\n"
        "    struct Inner { int x = 0; };\n"
        "    int helper() const { return 0; }\n"
        "  };\n"
        "  struct RetryPolicy { int nested = 1; int forgotten = 2; };\n"
        "  struct Options { RetryPolicy retry; };\n"
        "};\n"
        "inline void use(Widget::Params& p, Widget::Options& o) {\n"
        "  Widget::Params q{7};\n"
        "  p.direct = q.positional;\n"
        "  o.retry.nested = 3;\n"
        "}\n",
        os.path.join("src", "core", "fixture_knob.hpp"),
        "unset-knob",
        2,  # unset and forgotten; set, nested, waived and non-fields pass
    ),
)


def self_test() -> int:
    """Negative tests: plant known-bad fixtures in a temp tree, assert each
    check fires the expected number of times and allow-comments suppress."""
    import shutil
    import tempfile

    global REPO_ROOT
    failures = 0
    saved_root = REPO_ROOT
    tmp = tempfile.mkdtemp(prefix="griphon_lint_selftest_")
    try:
        REPO_ROOT = tmp
        check_fns = {
            "raw-sync": check_raw_sync,
            "detached-thread": check_detached_thread,
            "mutable-global": check_mutable_global,
            "conn-state": check_conn_state,
            "ems-domain-name": check_ems_domain_name,
            "metric-name": check_metric_names,
            "unset-knob": check_unset_knobs,
        }
        for source, rel, check, expected in SELF_TEST_FIXTURES:
            case_dir = os.path.join(tmp, os.path.dirname(rel))
            os.makedirs(case_dir, exist_ok=True)
            fixture = os.path.join(tmp, rel)
            with open(fixture, "w", encoding="utf-8") as fh:
                fh.write(source)
            findings: list[Finding] = []
            check_fns[check](findings)
            got = sum(1 for f in findings if f.check == check)
            status = "ok" if got == expected else "FAIL"
            if got != expected:
                failures += 1
            print(f"self-test [{check}] expected {expected} got {got}: "
                  f"{status}")
            os.remove(fixture)
    finally:
        REPO_ROOT = saved_root
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"griphon-lint self-test: "
          f"{'PASS' if failures == 0 else f'{failures} failure(s)'}")
    return 0 if failures == 0 else 1


# --- driver -----------------------------------------------------------------

CHECKS = {
    "metric-name": check_metric_names,
    "banned-call": check_banned_calls,
    "pragma-once": check_headers,
    "include-order": check_include_order,
    "nodiscard": check_nodiscard,
    "no-artifacts": check_no_artifacts,
    "raw-sync": check_raw_sync,
    "detached-thread": check_detached_thread,
    "mutable-global": check_mutable_global,
    "conn-state": check_conn_state,
    "ems-domain-name": check_ems_domain_name,
    "unset-knob": check_unset_knobs,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--report", metavar="FILE",
                        help="also write findings to FILE")
    parser.add_argument("--checks", default=",".join(CHECKS),
                        help="comma-separated subset of checks to run")
    parser.add_argument("--self-test", action="store_true",
                        help="run fixture-based negative tests and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    selected = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = [c for c in selected if c not in CHECKS]
    if unknown:
        print(f"error: unknown checks: {', '.join(unknown)}", file=sys.stderr)
        return 2

    findings: list[Finding] = []
    for name in selected:
        CHECKS[name](findings)

    findings.sort(key=lambda f: (f.path, f.line, f.check))
    lines = [str(f) for f in findings]
    summary = (
        f"griphon-lint: {len(findings)} finding(s) across "
        f"{len(selected)} checks"
        if findings
        else f"griphon-lint: clean ({len(selected)} checks)"
    )
    for line in lines:
        print(line)
    print(summary)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines + [summary]) + "\n")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
