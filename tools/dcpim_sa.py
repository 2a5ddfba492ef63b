#!/usr/bin/env python3
"""dcpim-sa: semantic analyzer for the dcPIM simulator (sixth CI lane).

Where tools/lint_dcpim.py enforces line-local textual rules, dcpim-sa builds
a per-translation-unit model (function definitions, call sites, switch
statements, range-for loops, declarations) plus a whole-program call graph,
and checks the semantic properties the ROADMAP's correctness story rests on:

  determinism     event-handler-reachable code must not reach banned
                  nondeterminism sources: std::rand/srand/random_device,
                  wall clocks (std::chrono system/steady/high_resolution,
                  gettimeofday, ::time(), clock()), and must not range-for
                  over std::unordered_{map,set} where the iteration order
                  can escape into simulation state (address/bucket-dependent
                  ordering is the classic cross-platform reproducibility
                  leak). Banned *calls* are flagged anywhere in src/ (same
                  strictness as lint_dcpim); unordered iteration is flagged
                  only in event-handler-reachable functions, where order can
                  become packet order. The fault-plan constructors
                  (random_fault_plan, expand) count as roots: their draws
                  seed wildcard resolution and per-port loss streams, so
                  order leaks there desynchronize sweeps just the same.

  packet-switch   every `switch` over a packet/control-kind enum (enums
                  named *Kind in src/proto/, src/core/, and src/sim/fault/
                  — FaultKind included) must cover all enumerators, or
                  carry an explicitly audited default via an
                  sa-ok(packet-switch) justification. A bare `default:` does
                  NOT count as coverage — a default silently swallowing a
                  newly added control packet is exactly the bug this rule
                  exists to catch.

  hot-alloc       functions annotated `// sa-hot` (the per-packet fabric:
                  Port::enqueue/try_transmit, Switch::receive, the
                  Simulator event loop, Host::accept_data) must not
                  transitively reach allocation or container growth
                  (new/make_unique/make_shared/push_back/emplace/insert/
                  resize/reserve/...). Traversal follows the call graph but
                  only descends into functions defined under --hot-scope
                  (default src/net/ and src/sim/): the virtual dispatch into
                  protocol handlers is the contract boundary — protocols
                  manufacture control packets by design.
                  Calls resolve by the receiver's declared type: a member
                  call on a std container (or a std::-qualified call) is a
                  library call that may allocate but never enters project
                  code, however a project member is named; a bare, this->
                  or project-typed call runs only that class family's
                  methods (bases and overrides) and is never itself charged
                  as a std allocation, even when named `append`. Receivers
                  the text frontend cannot type fall back to the simple
                  name, and an ALLOC_CALLS name then counts as growth.

  unit-raw        every `.raw()` escape from a strong unit type needs an
                  sa-ok(unit-raw) justification (successor of lint_dcpim's
                  regex rule; every .raw()/->raw() call is flagged).

  shard-ownership every mutable sim-state field belongs to an ownership
                  domain (per-host, per-switch-port, per-simulator,
                  harness-global — inferred from the declaring class's name,
                  its base-class chain, and its file; DESIGN.md §12). A
                  direct field write that crosses domains, reached from an
                  event callback, is flagged: it is exactly the access a
                  one-shard-per-leaf domain decomposition cannot allow.
                  Packet fields are the sanctioned hand-off conduit (never
                  flagged), and harness-side schedulers (fault injection,
                  arrival generation) stage state by design and are not
                  roots. Method calls are the hand-off boundary — only
                  direct writes (`x->field = ...`) cross-domain are the
                  hazard this rule exists for.

  hot-cost        beyond allocation (hot-alloc), the per-packet/per-event
                  paths reachable from `// sa-hot` roots must not silently
                  pay: heavy pass-by-value copies (string/vector/map/
                  function parameters), virtual dispatch, ordered std::map/
                  std::set lookups, or event-queue operations
                  (schedule_at/schedule_after calls and pushes/pops on the
                  scheduling class's queue storage, recognized by type and
                  by the schedule API — not by function name). Every site
                  is a finding (fix or justify with sa-ok(hot-cost)) AND a
                  row in the ranked sa_hot_cost.json report
                  (--hot-cost-json) that the speed program attacks next.

  lifetime        flow-insensitive escape analysis for packet and event
                  lifetimes — the proof obligation behind the PacketPool
                  free-list (DESIGN.md §13). Three escape classes:
                  (a) field-escape: a class field typed as raw `Packet*`/
                  `Packet&` (or a container of raw packet pointers) outlives
                  the delivery call chain, so a recycled packet would leave
                  it dangling; (b) callback-capture-escape: a lambda handed
                  to `schedule_at`/`schedule_after` captures by reference
                  (`[&]` or `[&x]`) or captures a raw packet parameter by
                  value — the callback runs at event time, after the
                  captured frame (or the delivered packet) is gone;
                  (c) factory-discipline: `new`/`make_unique`/`make_shared`
                  of a packet type outside the sanctioned factory files
                  (`src/net/host.{h,cpp}`, `src/net/packet_pool.{h,cpp}`)
                  bypasses the pool and its reset_transient() hygiene.
                  Every site — suppressed or not — also lands in the
                  --lifetime-json report, the pool's standing audit ledger.

Suppression grammar (checked by the built-in `sa-suppression` meta-rule):

    // sa-ok(<rule>): <justification>

The justification is mandatory; the comment covers its own line and the
lines below it up to the first blank line (max 12 — same reach as the
historical `unit-raw:` comments). Suppressions are counted per rule and
ratcheted against tools/sa_baseline.json: a count above the baseline fails
the run, a count below it prints a reminder to tighten. Unused and
malformed suppressions are violations themselves, so the suppression set
can only shrink or be re-justified, never silently rot.

Frontend: a built-in tokenizer/parser builds each translation unit's
model from the source text, so the analyzer needs nothing beyond python3
(compile_commands.json only supplies the file list). The fixture corpus
regression-tests it.

Usage:
    tools/dcpim_sa.py --compdb build/compile_commands.json \
        --json build/sa_report.json
    tools/dcpim_sa.py --files tests/sa_fixtures/*.cpp --no-ratchet

Exit status: 0 clean, 1 findings (or ratchet regression), 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

# =============================================================================
# Configuration tables
# =============================================================================

RULES = ("determinism", "packet-switch", "hot-alloc", "hot-cost",
         "shard-ownership", "unit-raw", "lifetime", "pdes",
         "sa-suppression")

# Qualified token chains whose *call* is banned anywhere in src/.
BANNED_QUALIFIED = {
    ("std", "rand"): "std::rand",
    ("std", "srand"): "std::srand",
    ("std", "random_device"): "std::random_device",
    ("std", "chrono", "system_clock"): "wall clock (system_clock)",
    ("std", "chrono", "steady_clock"): "wall clock (steady_clock)",
    ("std", "chrono", "high_resolution_clock"):
        "wall clock (high_resolution_clock)",
    ("chrono", "system_clock"): "wall clock (system_clock)",
    ("chrono", "steady_clock"): "wall clock (steady_clock)",
    ("chrono", "high_resolution_clock"):
        "wall clock (high_resolution_clock)",
}

# Bare identifiers banned when they appear as a call (not behind . or ->).
BANNED_BARE_CALLS = {
    "rand": "rand()",
    "srand": "srand()",
    "rand_r": "rand_r()",
    "drand48": "drand48()",
    "lrand48": "lrand48()",
    "gettimeofday": "gettimeofday()",
    "random_device": "std::random_device",
}
# time(...) / clock() are only nondeterminism when called bare with a
# wall-clock-shaped argument list; member fns named time()/clock() are fine.
BANNED_TIME_LIKE = {"time", "clock"}

# Method names whose call means allocation/growth on the hot path.
ALLOC_CALLS = {
    "make_unique", "make_shared", "push_back", "emplace_back", "push_front",
    "emplace_front", "emplace", "insert", "resize", "reserve", "assign",
    "append", "to_string",
}

# Library types whose methods are never project functions: a call through a
# receiver declared with one of these (`std::`-qualified) is a std call —
# it can allocate (ALLOC_CALLS) but never resolves into project code, however
# a project member happens to be named.
STD_CONTAINERS = {
    "vector", "deque", "list", "forward_list", "array", "map", "set",
    "multimap", "multiset", "unordered_map", "unordered_set",
    "unordered_multimap", "unordered_multiset", "string", "basic_string",
    "priority_queue", "queue", "stack", "bitset", "span", "string_view",
}

UNORDERED_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\b")

# Functions whose simple name marks an event-handler entry point. Any
# function that schedules simulator callbacks is also a root: its lambda
# bodies execute at event time and the text frontend attributes lambda-body
# calls to the enclosing function. The fault-plan constructors are roots
# too: random_fault_plan/expand run before the simulation starts, but the
# plans they draw feed wildcard resolution and per-port loss streams, so a
# nondeterminism leak there desynchronizes sweeps exactly like one at
# event time would (FaultInjector::install is already a root — it
# schedules).
EVENT_ROOT_NAMES = {"on_packet", "on_flow_arrival", "receive", "run",
                    "run_steps", "random_fault_plan", "expand"}
SCHEDULING_CALLS = {"schedule_at", "schedule_after", "schedule_local",
                    "schedule_local_at", "schedule_remote"}

# --- pdes rule tables (DESIGN.md §15) ----------------------------------------
# Conservative PDES needs every cross-shard event to carry a provably
# positive delay (the lookahead). The locality-typed scheduling API makes
# that provenance syntactic: _local claims same-domain (zero delay fine),
# _remote crosses domains behind a link's Lookahead. Raw calls say nothing,
# so inside a sharded domain they are findings.
PDES_RAW_CALLS = {"schedule_at", "schedule_after"}
PDES_LOCAL_CALLS = {"schedule_local", "schedule_local_at"}
PDES_REMOTE_CALLS = {"schedule_remote"}

# The sanctioned cross-domain hand-off seam: a Packet delivered through
# Device::receive, and the PFC pause wire into a peer port. A call to one
# of these inside a schedule_local lambda means the "local" claim is a lie.
PDES_CONDUIT_METHODS = {"receive", "set_paused"}

# The only file that may construct sim::Lookahead in src/: the Port link
# seam (Port::link_lookahead), which ties every bound to a link's
# propagation delay. Empty in --files fixture mode (every construction
# outside a suppression is flagged).
PDES_LOOKAHEAD_FILES = ("src/net/device.h",)

# Time is integer picoseconds and Lookahead's constructor checks > 0, so
# every proven bound is statically >= 1 ps. The sa_pdes.json table reports
# this floor; the real per-edge bound is the link's configured propagation.
PDES_MIN_LOOKAHEAD_PS = 1

# Literal-zero delay expressions the raw-schedule message calls out
# explicitly (the classical zero-lookahead PDES hazard).
PDES_ZERO_ARG_FORMS = {
    ("0",), ("Time", "{", "}"), ("Time", "{", "0", "}"),
    ("Time", "(", "0", ")"), ("TimePoint", "{", "}"),
    ("ps", "(", "0", ")"), ("ns", "(", "0", ")"), ("us", "(", "0", ")"),
}

# shard-ownership roots are narrower than EVENT_ROOT_NAMES: `run` would drag
# SweepRunner::run (same simple name) into the event-reachable set and flag
# the harness's own setup writes, and harness-global schedulers (arrival
# generation, fault-plan install) stage state across domains by design
# before events fire. The rule therefore roots at the per-event callbacks
# plus schedulers whose own class lives in a sharded domain.
OWNERSHIP_ROOT_NAMES = {"on_packet", "on_flow_arrival", "receive"}

# Path prefixes (repo-relative, forward slashes) whose *Kind enums are
# packet/control-kind enums subject to the exhaustiveness rule. FaultKind
# (src/sim/fault/) rides the same rule: a `default:` swallowing a newly
# added fault verb would silently skip injecting it.
KIND_ENUM_PATHS = ("src/proto/", "src/core/", "src/sim/fault/")
KIND_ENUM_RE = re.compile(r"Kind$")

# --- lifetime rule tables ----------------------------------------------------
# The only files that may manufacture packet objects: the Host factories
# (make_data_packet / make_control) and the pool they draw from. Everything
# else must go through them — that is what makes recycling provably safe.
# Empty in --files fixture mode, where every packet allocation is flagged.
SANCTIONED_FACTORY_FILES = (
    "src/net/host.h", "src/net/host.cpp",
    "src/net/packet_pool.h", "src/net/packet_pool.cpp",
)

# Owning wrappers whose presence in a field's type makes a packet member
# safe: the wrapper's destructor runs, so recycling cannot dangle it.
OWNING_WRAPPERS = {"unique_ptr", "shared_ptr", "PacketPtr"}

# hot-alloc traversal only descends into functions defined under these
# prefixes; a call out of scope is the accepted protocol-dispatch boundary.
# hot-cost shares the same scope: the virtual dispatch *into* a protocol is
# itself reported (as a dispatch cost site), but the analyzer does not chase
# costs on the far side of that contract boundary.
DEFAULT_HOT_SCOPE = ("src/net/", "src/sim/")

# --- shard-ownership domains (DESIGN.md §12) ---------------------------------
DOMAIN_HOST = "per-host"
DOMAIN_FABRIC = "per-switch-port"
DOMAIN_SIM = "per-simulator"
DOMAIN_HARNESS = "harness-global"
DOMAIN_PACKET = "packet"  ##< the sanctioned hand-off conduit, never flagged


def domain_of_name(name: str):
    """Class-name rules, checked on a class and then its base chain. The
    order matters: Host derives from Device, so the host rule must hit
    before the fabric rule does via the base walk."""
    if "Packet" in name or name.endswith("Spec"):
        return DOMAIN_PACKET
    if name == "Simulator" or name.endswith("Simulator"):
        return DOMAIN_SIM
    if (name == "Host" or name.endswith("Host") or name == "Flow" or
            name.endswith("RxState") or name.endswith("TxState") or
            name.endswith("FlowState")):
        return DOMAIN_HOST
    if (name in ("Port", "Device") or name.endswith("Switch") or
            name.endswith("Port") or name.endswith("Device")):
        return DOMAIN_FABRIC
    if name in ("Network", "Topology", "Auditor"):
        return DOMAIN_SIM
    return None


# File-path fallback for classes (and free functions) the name rules do not
# place. Checked in order; first prefix hit wins.
DOMAIN_PATHS = (
    ("src/net/host", DOMAIN_HOST),
    ("src/proto/", DOMAIN_HOST),
    ("src/core/", DOMAIN_HOST),
    ("src/net/packet", DOMAIN_PACKET),
    ("src/net/flow", DOMAIN_HOST),
    ("src/net/", DOMAIN_FABRIC),
    ("src/sim/", DOMAIN_SIM),
    ("src/", DOMAIN_HARNESS),
)

# Compound-assignment and increment tokens that make a member access a write.
ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=",
              "++", "--", "<<=", ">>="}

# --- hot-cost categories -----------------------------------------------------
# Weight orders the sa_hot_cost.json report: event-queue ops dominate (every
# event pays a push and a pop), then ordered-map lookups and heavy copies,
# then the dispatch boundary itself.
HOT_COST_WEIGHTS = {
    "heap-op": 5,
    "map-lookup": 4,
    "heavy-copy": 4,
    "virtual-dispatch": 3,
}

# Parameter types whose by-value copy on a hot path is a real memcpy/alloc,
# not a register move. Smart pointers and strong units are deliberately
# absent: unique_ptr by value is the move-idiom and StrongInt is one word.
HEAVY_VALUE_TYPES = {
    "string", "basic_string", "vector", "deque", "list", "map", "set",
    "multimap", "multiset", "unordered_map", "unordered_set", "function",
}

# Mutating calls on the scheduling class's queue storage that constitute an
# event-queue operation.
HEAP_MUTATION_CALLS = {
    "push_back", "pop_back", "emplace_back", "push", "pop", "emplace",
    "insert", "erase",
}

ORDERED_CONTAINERS = {"map", "set", "multimap", "multiset"}
ORDERED_LOOKUP_CALLS = {"find", "count", "at", "lower_bound", "upper_bound",
                        "contains", "equal_range", "insert", "emplace",
                        "erase"}

# The colon is part of the grammar: prose that *mentions* sa-ok(rule)
# without one (docs, this file) is not a suppression.
SA_OK_RE = re.compile(r"sa-ok\(([A-Za-z0-9_-]+)\)\s*:\s*(.*)")
SA_HOT_RE = re.compile(r"\bsa-hot\b")
SUPPRESSION_REACH = 12

CPP_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "case",
    "default", "do", "else", "new", "delete", "static_cast", "dynamic_cast",
    "const_cast", "reinterpret_cast", "catch", "throw", "decltype", "typeid",
    "noexcept", "static_assert", "alignas", "co_await", "co_return",
    "co_yield", "requires", "constexpr", "consteval", "constinit",
}


# =============================================================================
# Findings / report model
# =============================================================================

@dataclass
class Finding:
    rule: str
    file: str
    line: int
    message: str
    path: list[str] = field(default_factory=list)  ##< call path, if any

    def key(self):
        return (self.rule, self.file, self.line, self.message)

    def to_json(self):
        d = {"rule": self.rule, "file": self.file, "line": self.line,
             "message": self.message}
        if self.path:
            d["path"] = self.path
        return d


@dataclass
class Suppression:
    rule: str
    file: str
    line: int
    justification: str
    used: bool = False


# =============================================================================
# Text frontend: tokenizer
# =============================================================================

@dataclass
class Tok:
    text: str
    line: int
    kind: str  # "id", "num", "punct"


def tokenize(source: str):
    """Lexes C++ source into tokens, and separately returns per-line comment
    text (for sa-ok / sa-hot annotations). String/char literal contents are
    dropped; the literal is kept as a single punct token so call argument
    shapes survive."""
    toks: list[Tok] = []
    comments: dict[int, str] = {}
    i, n, line = 0, len(source), 1
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "/" and i + 1 < n and source[i + 1] == "/":
            j = source.find("\n", i)
            if j < 0:
                j = n
            comments[line] = comments.get(line, "") + source[i + 2:j]
            i = j
            continue
        if c == "/" and i + 1 < n and source[i + 1] == "*":
            j = source.find("*/", i + 2)
            if j < 0:
                j = n
            block = source[i + 2:j]
            # A block comment annotates the line it starts on.
            comments[line] = comments.get(line, "") + block
            line += block.count("\n")
            i = j + 2
            continue
        if c == "#":  # preprocessor directive: skip to end of (logical) line
            while i < n and source[i] != "\n":
                if source[i] == "\\" and i + 1 < n and source[i + 1] == "\n":
                    line += 1
                    i += 2
                    continue
                i += 1
            continue
        if c in "\"'":
            # R"(...)" raw strings are not used in this codebase; plain scan.
            quote = c
            i += 1
            while i < n and source[i] != quote:
                if source[i] == "\\":
                    i += 1
                if i < n and source[i] == "\n":
                    line += 1
                i += 1
            i += 1
            toks.append(Tok('""' if quote == '"' else "''", line, "punct"))
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            toks.append(Tok(source[i:j], line, "id"))
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and (source[j].isalnum() or source[j] in "._'+-" and
                             (source[j] not in "+-" or
                              source[j - 1] in "eEpP")):
                j += 1
            toks.append(Tok(source[i:j], line, "num"))
            i = j
            continue
        # multi-char punctuation we care about (longest match first)
        for multi in ("<<=", ">>=", "::", "->", "<<", ">>", "<=", ">=",
                      "==", "!=", "&&", "||", "+=", "-=", "*=", "/=",
                      "%=", "|=", "&=", "^=", "++", "--"):
            if source.startswith(multi, i):
                toks.append(Tok(multi, line, "punct"))
                i += len(multi)
                break
        else:
            toks.append(Tok(c, line, "punct"))
            i += 1
    return toks, comments


# =============================================================================
# Text frontend: TU model extraction
# =============================================================================

@dataclass
class FunctionDef:
    name: str          ##< qualified as written, e.g. "Simulator::heap_push"
    simple: str        ##< last component, e.g. "heap_push"
    file: str
    line: int
    ##< (simple_name, line, receiver): receiver is "" for a bare call,
    ##< "::Q" for a Q::-qualified one, the immediate receiver's name for
    ##< `x.f()` / `x->f()` / `x[i].f()`, "()g" for a call result
    ##< `g().f()`, and None when the receiver is an expression the text
    ##< frontend cannot name (`(*it).f()`)
    calls: list = field(default_factory=list)
    ##< declared name -> {type label} for the parameters and locals
    decl_types: dict = field(default_factory=dict)
    return_label: str = None  ##< type_label() of the return type, if any
    banned: list = field(default_factory=list)      ##< (what, line)
    allocs: list = field(default_factory=list)      ##< ("new", line)
    range_fors: list = field(default_factory=list)  ##< (target_id, line)
    switches: list = field(default_factory=list)    ##< SwitchStmt
    is_hot: bool = False
    schedules: bool = False
    owner: str = ""    ##< enclosing/qualifying class name, "" for free fns
    writes: list = field(default_factory=list)       ##< (root, field, line)
    member_calls: list = field(default_factory=list)  ##< (base, method, line)
    heavy_params: list = field(default_factory=list)  ##< (type, name, line)
    ##< typed allocations: (alloc_kind, type_name, line) for `new T`,
    ##< `make_unique<T>`, `make_shared<T>` — the lifetime factory rule
    ##< filters these against the packet-type registry
    typed_allocs: list = field(default_factory=list)
    ##< capture lists of lambdas passed to the scheduling API:
    ##< (list-of-capture-token-lists, line)
    sched_captures: list = field(default_factory=list)
    ##< scheduling call sites for the pdes rule: (callee, line,
    ##< first-arg-token-texts, ((conduit_method, line), ...)) — conduit
    ##< methods called inside the argument span, nested scheduling calls
    ##< excluded (they are their own sites)
    sched_sites: list = field(default_factory=list)
    ##< lines where sim::Lookahead is constructed call-style — the pdes
    ##< provenance check restricts these to the link seam
    lookahead_ctors: list = field(default_factory=list)
    ##< parameter names declared as raw Packet*/Packet& (name-based:
    ##< `Packet` or `*Packet`; the owning PacketPtr never matches)
    packet_params: list = field(default_factory=list)


@dataclass
class ClassDef:
    name: str
    file: str
    line: int
    end_line: int
    bases: list = field(default_factory=list)      ##< direct base names
    fields: list = field(default_factory=list)     ##< (name, type_str, line)
    virtual_methods: set = field(default_factory=set)
    has_schedule_api: bool = False
    ##< container members that back the event queue (type-recognized:
    ##< priority_queue anywhere, or vector/deque inside the class that
    ##< declares the schedule API)
    eventq_members: set = field(default_factory=set)
    ##< method-return escapes: accessor name -> returned class for
    ##< `T& name(...)` / `T* name(...)` members (const-ref returns are
    ##< excluded — nothing can be written through them)
    accessor_returns: dict = field(default_factory=dict)


@dataclass
class SwitchStmt:
    file: str
    line: int
    labels: set
    has_default: bool


@dataclass
class TUModel:
    file: str
    functions: list = field(default_factory=list)
    enums: dict = field(default_factory=dict)       ##< name -> [enumerators]
    unordered_decls: set = field(default_factory=set)
    ordered_decls: set = field(default_factory=set)  ##< std::map/set names
    decl_types: dict = field(default_factory=dict)   ##< name -> {type label}
    classes: list = field(default_factory=list)      ##< ClassDef
    raw_calls: list = field(default_factory=list)   ##< lines with .raw()
    comments: dict = field(default_factory=dict)


def match_paren(toks, i):
    """toks[i] == '('; returns index of its matching ')'."""
    depth = 0
    while i < len(toks):
        if toks[i].text == "(":
            depth += 1
        elif toks[i].text == ")":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return len(toks) - 1


def match_brace(toks, i):
    """toks[i] == '{'; returns index of its matching '}'."""
    depth = 0
    while i < len(toks):
        if toks[i].text == "{":
            depth += 1
        elif toks[i].text == "}":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return len(toks) - 1


def collect_container_decls(toks, out: set, match_tok):
    """Records declared names whose type satisfies `match_tok(toks, i)`:
    members, locals, and `using X = std::...<...>` aliases. The lookup is
    name-based — precise enough for this codebase's unique member names."""
    aliases: set = set()
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id" or not match_tok(toks, i):
            if t.text == "using" and i + 2 < n and toks[i + 2].text == "=":
                # using Alias = ... container ... ;
                j = i + 3
                is_match = False
                while j < n and toks[j].text != ";":
                    if toks[j].kind == "id" and (
                            match_tok(toks, j) or
                            toks[j].text in aliases):
                        is_match = True
                    j += 1
                if is_match:
                    aliases.add(toks[i + 1].text)
                    out.add(toks[i + 1].text)
            continue
        name = declared_name(toks, i, n)
        if name is not None:
            out.add(name)


# Tokens that may follow a declared name: `T x;`, `T x = ...`, `T x{...}`,
# `T x, ...` and a parameter's `T x)`.
DECL_ENDERS = (";", "=", "{", ",", ")")


def declared_name(toks, i, end, enders=DECL_ENDERS):
    """The name declared by a declaration whose type name is toks[i] —
    template arguments, `&`, `&&`, `*` and `const` skipped — or None when
    no declarator followed by one of `enders` comes next."""
    j = i + 1
    if j < end and toks[j].text == "<":
        depth = 0
        while j < end:
            if toks[j].text == "<":
                depth += 1
            elif toks[j].text == ">":
                depth -= 1
                if depth == 0:
                    break
            elif toks[j].text == ">>":
                depth -= 2
                if depth <= 0:
                    break
            j += 1
        j += 1
    while j < end and toks[j].text in ("&", "&&", "*", "const"):
        j += 1
    if j < end and toks[j].kind == "id":
        nxt = toks[j + 1].text if j + 1 < end else ";"
        if nxt in enders:
            return toks[j].text
    return None


def is_unordered_tok(toks, i):
    return bool(UNORDERED_RE.match(toks[i].text))


def is_ordered_tok(toks, i):
    """`std::map` / `std::set` family only — the std:: qualification keeps
    user types that happen to be named `map` out of the registry."""
    if toks[i].text not in ORDERED_CONTAINERS:
        return False
    return i >= 2 and toks[i - 1].text == "::" and toks[i - 2].text == "std"


def collect_unordered_decls(toks, out: set):
    collect_container_decls(toks, out, is_unordered_tok)


def type_label(toks, i):
    """Type label of a declaration whose type name is toks[i]: "std::X" for
    a std::-qualified STD_CONTAINERS type, the name itself for a project
    class (CamelCase by convention), else None (builtins, auto, smart
    pointers — receivers the resolver does not type)."""
    text = toks[i].text
    prev = toks[i - 1].text if i > 0 else ""
    if prev in (".", "->"):
        return None
    if text in STD_CONTAINERS:
        if i >= 2 and prev == "::" and toks[i - 2].text == "std":
            return "std::" + text
        return None
    if text[:1].isupper() and not text.isupper():
        return text
    return None


def collect_decl_types(toks, start, end, out: dict):
    """Records `name -> {type label}` for every declaration in
    toks[start:end] whose type type_label() can name: `T x;`, `T& x,`,
    `const T* x = ...`, `T x[n]`, `for (T& x : ...)`. Template arguments of
    the type are skipped; a name declared with two labels keeps both, and
    the resolver treats it as untyped."""
    for i in range(start, end):
        if toks[i].kind != "id":
            continue
        label = type_label(toks, i)
        if label is None:
            continue
        name = declared_name(toks, i, end, DECL_ENDERS + (":", "["))
        if name is not None:
            out.setdefault(name, set()).add(label)


def call_receiver(toks, i):
    """Receiver of the call whose name is toks[i] (see FunctionDef.calls)."""
    prev = toks[i - 1].text if i > 0 else ""
    if prev == "::":
        return "::" + toks[i - 2].text if i >= 2 and \
            toks[i - 2].kind == "id" else "::"
    if prev not in (".", "->"):
        return ""
    k = i - 2
    while k >= 0 and toks[k].text == "]":  # x[i].f(): the receiver is x
        depth = 0
        while k >= 0:
            if toks[k].text == "]":
                depth += 1
            elif toks[k].text == "[":
                depth -= 1
                if depth == 0:
                    break
            k -= 1
        k -= 1
    if k >= 0 and toks[k].text == ")":  # f().g(): typed by f's return
        depth = 0
        while k >= 0:
            if toks[k].text == ")":
                depth += 1
            elif toks[k].text == "(":
                depth -= 1
                if depth == 0:
                    break
            k -= 1
        k -= 1
        return "()" + toks[k].text if k >= 0 and toks[k].kind == "id" \
            and toks[k].text not in CPP_KEYWORDS else None
    return toks[k].text if k >= 0 and toks[k].kind == "id" else None


def return_label(toks, k):
    """Type label of the return type ending just before toks[k] (the first
    token of a function definition's name): `std::vector<int>& f(` ->
    "std::vector", `Port* f(` -> "Port"."""
    j = k - 1
    while j >= 0 and toks[j].text in ("&", "*", "&&", "const"):
        j -= 1
    if j >= 0 and toks[j].text in (">", ">>"):
        depth = 0
        while j >= 0:
            if toks[j].text == ">":
                depth += 1
            elif toks[j].text == ">>":
                depth += 2
            elif toks[j].text == "<":
                depth -= 1
                if depth <= 0:
                    break
            j -= 1
        j -= 1
    if j >= 0 and toks[j].kind == "id":
        return type_label(toks, j)
    return None


def parse_enums(toks, out: dict):
    n = len(toks)
    i = 0
    while i < n:
        if toks[i].text == "enum" and toks[i].kind == "id":
            j = i + 1
            if j < n and toks[j].text in ("class", "struct"):
                j += 1
            if j < n and toks[j].kind == "id":
                name = toks[j].text
                j += 1
                if j < n and toks[j].text == ":":  # underlying type
                    while j < n and toks[j].text != "{":
                        j += 1
                if j < n and toks[j].text == "{":
                    end = match_brace(toks, j)
                    enumerators = []
                    k = j + 1
                    expect_name = True
                    depth = 0
                    while k < end:
                        t = toks[k]
                        if t.text in ("(", "{", "["):
                            depth += 1
                        elif t.text in (")", "}", "]"):
                            depth -= 1
                        elif depth == 0 and t.text == ",":
                            expect_name = True
                        elif depth == 0 and expect_name and t.kind == "id":
                            enumerators.append(t.text)
                            expect_name = False
                        k += 1
                    if enumerators:
                        out[name] = enumerators
                    i = end
        i += 1


def parse_classes(toks, file, out: list, start=0, end=None):
    """Finds class/struct definitions in toks[start:end] (nested classes
    recursed) and records their line span, direct bases, mutable data
    members, virtual method names, whether they expose the simulator's
    schedule API, and their event-queue storage members. This is the model
    behind shard-ownership domains and the hot-cost heap-op category."""
    if end is None:
        end = len(toks)
    i = start
    while i < end:
        t = toks[i]
        if t.kind == "id" and t.text in ("class", "struct") and \
                (i == 0 or toks[i - 1].text != "enum"):
            j = i + 1
            # skip an attribute-macro call between the keyword and the name
            # (e.g. `class DCPIM_CAPABILITY("mutex") Mutex`).
            name = None
            if j < end and toks[j].kind == "id":
                name = toks[j].text
                j += 1
                if j < end and toks[j].text == "(":
                    j = match_paren(toks, j) + 1
                    if j < end and toks[j].kind == "id":
                        name = toks[j].text
                        j += 1
            if name is not None:
                if j < end and toks[j].text == "final":
                    j += 1
                bases: list = []
                if j < end and toks[j].text == ":":
                    j += 1
                    depth = 0
                    while j < end and not (depth == 0 and
                                           toks[j].text == "{"):
                        tj = toks[j]
                        if tj.text == "<":
                            depth += 1
                        elif tj.text in (">", ">>"):
                            depth -= 2 if tj.text == ">>" else 1
                        elif depth <= 0 and tj.kind == "id" and tj.text \
                                not in ("public", "protected", "private",
                                        "virtual"):
                            bases.append(tj.text)
                        j += 1
                if j < end and toks[j].text == "{":
                    be = match_brace(toks, j)
                    cd = ClassDef(name=name, file=file, line=t.line,
                                  end_line=toks[be].line, bases=bases)
                    scan_class_members(toks, j + 1, be, cd, file, out)
                    out.append(cd)
                    i = be
                    continue
        i += 1


def scan_class_members(toks, start, end, cd: ClassDef, file, out):
    """Walks one class body: fields, virtual methods, the schedule API, and
    nested classes (recursed into `out` as their own ClassDefs)."""
    deferred_containers: list = []  # (name, line): vector/deque members
    stmt: list = []
    i = start
    while i < end:
        t = toks[i]
        if t.kind == "id" and t.text in ("class", "struct") and \
                (i == 0 or toks[i - 1].text != "enum"):
            # nested class definition (or forward decl): recurse via
            # parse_classes, then skip to where it ended
            probe = i
            parse_classes(toks, file, out, i, end)
            # advance past the nested body if one was parsed
            k = i + 1
            while k < end and toks[k].text not in ("{", ";"):
                k += 1
            i = match_brace(toks, k) if k < end and toks[k].text == "{" \
                else k
            stmt = []
            i += 1
            del probe
            continue
        if t.text == "{":
            prev = stmt[-1].text if stmt else ""
            if prev in (")", "const", "noexcept", "override", "final") or \
                    prev == ">":
                # method body: skip it whole, statement is done
                i = match_brace(toks, i) + 1
                classify_member(stmt, cd)
                stmt = []
                continue
            # brace initializer (`Bytes b{};`): consume without recording
            i = match_brace(toks, i) + 1
            continue
        if t.text == ";":
            classify_member(stmt, cd)
            stmt = []
            i += 1
            continue
        if t.text == ":" and len(stmt) == 1 and \
                stmt[0].text in ("public", "private", "protected"):
            stmt = []  # access specifiers are statement separators
            i += 1
            continue
        stmt.append(t)
        i += 1
    classify_member(stmt, cd)
    # Event-queue storage: priority_queue members always; vector/deque
    # members when the class declares the schedule API (type + API based —
    # deliberately not a function-name match, see hot-cost docs).
    for name, _line in deferred_containers:
        cd.eventq_members.add(name)
    if cd.has_schedule_api:
        for fname, ftype, _line in cd.fields:
            if "vector" in ftype or "deque" in ftype:
                cd.eventq_members.add(fname)
    for fname, ftype, _line in cd.fields:
        if "priority_queue" in ftype:
            cd.eventq_members.add(fname)


def classify_member(stmt, cd: ClassDef):
    """Classifies one class-level statement as a field, a (possibly
    virtual) method, or noise. Angle-bracket depth is tracked so template
    arguments (including `std::function<void(int)>`) never look like
    parameter lists."""
    if not stmt:
        return
    first = stmt[0].text
    if first in ("public", "private", "protected", "using", "typedef",
                 "friend", "static_assert", "template", "enum", "operator"):
        return
    if any(t.text == "operator" for t in stmt):
        return  # operator overload declaration, never a field
    texts = []
    angle = 0
    has_paren = False
    name_before_paren = None
    last_id = None
    for k, t in enumerate(stmt):
        if t.text == "<" and k > 0 and stmt[k - 1].kind == "id":
            angle += 1
        elif t.text in (">", ">>") and angle > 0:
            angle -= 2 if t.text == ">>" else 1
            angle = max(angle, 0)
        elif angle == 0:
            if t.text == "(":
                if not has_paren:
                    name_before_paren = last_id
                has_paren = True
            elif t.text == "=":
                break
            elif t.kind == "id":
                last_id = t.text
        texts.append(t.text)
    if has_paren:
        if name_before_paren:
            if "virtual" in texts or "override" in texts or \
                    "final" in texts:
                cd.virtual_methods.add(name_before_paren)
            if name_before_paren in SCHEDULING_CALLS:
                cd.has_schedule_api = True
            # method-return escape: `T& name(...)` / `T* name(...)` hands
            # the caller a mutable window into T — the pdes accessor-escape
            # check resolves writes rooted at such accessors to T's domain.
            # Leading `const` means read-only, which cannot escape a write.
            head = []
            for t in stmt:
                if t.text == "(":
                    break
                head.append(t.text)
            if (len(head) >= 3 and head[-1] == name_before_paren and
                    head[-2] in ("&", "*") and "const" not in head):
                rtype = [h for h in head[:-2]
                         if h not in ("virtual", "static", "inline", "::")]
                if rtype and rtype[-1][:1].isupper():
                    cd.accessor_returns[name_before_paren] = rtype[-1]
        return
    if "static" in texts or "constexpr" in texts or "const" in texts[:-1]:
        return  # immutable or process-static: not mutable sim-state
    if last_id is None or len(stmt) < 2 or stmt[0].kind != "id":
        return
    type_str = " ".join(tt.text for tt in stmt
                        if tt.text != last_id)
    cd.fields.append((last_id, type_str, stmt[0].line))


def chain_root(toks, i):
    """toks[i] is a member id whose prev token is '.'/'->'; returns the
    first identifier of the postfix chain (`a->b.c` -> "a",
    `nic()->x` -> "nic"), or "" when the chain starts with something the
    text frontend cannot name."""
    k = i - 1
    root = ""
    while k >= 0 and toks[k].text in (".", "->"):
        k -= 1
        if k < 0:
            break
        if toks[k].text in (")", "]"):
            opener = "(" if toks[k].text == ")" else "["
            closer = toks[k].text
            depth = 0
            while k >= 0:
                if toks[k].text == closer:
                    depth += 1
                elif toks[k].text == opener:
                    depth -= 1
                    if depth == 0:
                        break
                k -= 1
            k -= 1
            if k >= 0 and toks[k].kind == "id":
                root = toks[k].text
                k -= 1
            else:
                return ""
        elif toks[k].kind == "id":
            root = toks[k].text
            k -= 1
        else:
            return ""
    return root


def split_params(toks, lp, rp):
    """Splits the parameter list in toks[lp+1:rp] into per-parameter token
    lists at top-level commas (template args, nested parens, and brace
    defaults do not split)."""
    parts: list = []
    part: list = []
    depth = 0
    for k in range(lp + 1, rp):
        t = toks[k]
        if t.text in ("(", "[", "{"):
            depth += 1
        elif t.text in (")", "]", "}"):
            depth -= 1
        elif t.text == "<" and k > lp + 1 and toks[k - 1].kind == "id":
            depth += 1
        elif t.text in (">", ">>") and depth > 0:
            depth -= 2 if t.text == ">>" else 1
        if t.text == "," and depth == 0:
            parts.append(part)
            part = []
        else:
            part.append(t)
    if part:
        parts.append(part)
    return parts


def heavy_value_params(toks, lp, rp):
    """Returns (container, name, line) for parameters in toks[lp+1:rp] that
    copy a heavy container by value. References, pointers, and rvalue refs
    are skipped; so are smart pointers and strong units (one-word moves)."""
    parts = split_params(toks, lp, rp)
    out = []
    for p in parts:
        texts = [t.text for t in p]
        if "&" in texts or "*" in texts or "&&" in texts:
            continue
        heavy = [t for t in p if t.kind == "id" and
                 t.text in HEAVY_VALUE_TYPES]
        if not heavy:
            continue
        name = ""
        for t in p:
            if t.text == "=":
                break
            if t.kind == "id":
                name = t.text
        if name in HEAVY_VALUE_TYPES:
            name = "<unnamed>"
        if name:
            out.append((heavy[-1].text, name, p[0].line))
    return out


def raw_packet_params(toks, lp, rp):
    """Returns the names of parameters in toks[lp+1:rp] declared as raw
    packet pointers/references (`Packet* p`, `const Packet& p`). The owning
    `PacketPtr` never matches (name-based: `Packet` or `...Packet`); rvalue
    refs of owning types don't either. Used by the lifetime rule: capturing
    such a parameter by value in a scheduled lambda escapes the packet past
    its delivery scope."""
    out = []
    for p in split_params(toks, lp, rp):
        texts = [t.text for t in p]
        if "*" not in texts and "&" not in texts:
            continue
        if not any(t.kind == "id" and
                   (t.text == "Packet" or t.text.endswith("Packet"))
                   for t in p):
            continue
        name = ""
        for t in p:
            if t.text == "=":
                break
            if t.kind == "id":
                name = t.text
        if name and name != "Packet" and not name.endswith("Packet"):
            out.append(name)
    return out


def extract_switches(toks, start, end, file, out):
    """Collects switch statements (labels at the switch's own nesting level,
    nested switches recursed) in toks[start:end]."""
    i = start
    while i < end:
        if toks[i].text == "switch" and toks[i].kind == "id":
            line = toks[i].line
            lp = i + 1
            if lp < end and toks[lp].text == "(":
                rp = match_paren(toks, lp)
                b = rp + 1
                if b < end and toks[b].text == "{":
                    be = match_brace(toks, b)
                    labels: set = set()
                    has_default = False
                    k = b + 1
                    while k < be:
                        t = toks[k]
                        if t.text == "switch" and t.kind == "id":
                            # nested switch: recurse, then skip over it
                            nlp = k + 1
                            nrp = match_paren(toks, nlp)
                            nb = nrp + 1
                            if nb < be and toks[nb].text == "{":
                                extract_switches(toks, k, match_brace(
                                    toks, nb) + 1, file, out)
                                k = match_brace(toks, nb)
                        elif t.text == "case":
                            k += 1
                            last = None
                            while k < be and toks[k].text != ":":
                                if toks[k].kind == "id":
                                    last = toks[k].text
                                k += 1
                            if last is not None:
                                labels.add(last)
                        elif t.text == "default":
                            has_default = True
                        k += 1
                    out.append(SwitchStmt(file, line, labels, has_default))
                    i = be
        i += 1


def extract_range_fors(toks, start, end, out):
    """Finds `for (decl : expr)` and records the last identifier of expr
    (the iterated entity) — e.g. `it->second.matches` -> `matches`."""
    i = start
    while i < end:
        if toks[i].text == "for" and toks[i].kind == "id" and \
                i + 1 < end and toks[i + 1].text == "(":
            rp = match_paren(toks, i + 1)
            group = toks[i + 2:rp]
            if not any(t.text == ";" for t in group):
                # range-for: find the top-level ':'
                depth = 0
                for gi, t in enumerate(group):
                    if t.text in ("(", "[", "{", "<"):
                        depth += 1
                    elif t.text in (")", "]", "}", ">"):
                        depth -= 1
                    elif t.text == ":" and depth <= 0:
                        expr = group[gi + 1:]
                        last_id = None
                        is_call = False
                        for e in expr:
                            if e.kind == "id":
                                last_id = e.text
                                is_call = False
                            elif e.text == "(":
                                is_call = True
                        if last_id is not None and not is_call:
                            out.append((last_id, toks[i].line))
                        break
            i = rp
        i += 1


def scan_body(fn: FunctionDef, toks, start, end):
    """Populates calls / banned constructs / allocations for a function
    body span (lambdas inside are attributed to the enclosing function)."""
    n = end
    i = start
    while i < n:
        t = toks[i]
        if t.text in ("++", "--") and i + 2 < n and \
                toks[i + 1].kind == "id" and \
                toks[i + 2].text in (".", "->"):
            # prefix increment of a member chain: ++h.count_
            root = toks[i + 1].text
            k = i + 2
            last = None
            while k + 1 < n and toks[k].text in (".", "->") and \
                    toks[k + 1].kind == "id":
                last = toks[k + 1]
                k += 2
            if last is not None:
                fn.writes.append((root, last.text, last.line))
            i = k
            continue
        if t.kind == "id":
            prev = toks[i - 1].text if i > 0 else ""
            nxt = toks[i + 1].text if i + 1 < n else ""
            if prev in (".", "->"):
                # `.field =` directly after `{` or `,` is a designated
                # initializer (aggregate construction), not a write into
                # someone's live state — the object does not exist yet.
                designated = (prev == "." and i >= 2 and
                              toks[i - 2].text in ("{", ","))
                if nxt == "(":
                    fn.member_calls.append(
                        (chain_root(toks, i), t.text, t.line))
                elif not designated:
                    # member-field write: skip index groups, then look for
                    # an assignment/compound-assignment/incdec operator
                    j = i + 1
                    while j < n and toks[j].text == "[":
                        depth = 0
                        while j < n:
                            if toks[j].text == "[":
                                depth += 1
                            elif toks[j].text == "]":
                                depth -= 1
                                if depth == 0:
                                    break
                            j += 1
                        j += 1
                    if j < n and toks[j].text in ASSIGN_OPS:
                        fn.writes.append(
                            (chain_root(toks, i), t.text, t.line))
            if t.text == "new" and prev != "operator":
                fn.allocs.append(("new", t.line))
                # allocated type for the lifetime factory rule: the last
                # identifier of the type chain (`new proto::TokenPacket(...)`
                # -> TokenPacket), skipping a placement-argument group
                k = i + 1
                if k < n and toks[k].text == "(":
                    k = match_paren(toks, k) + 1
                last_id = None
                while k < n and (toks[k].kind == "id" or
                                 toks[k].text == "::"):
                    if toks[k].kind == "id":
                        last_id = toks[k].text
                    k += 1
                if last_id is not None:
                    fn.typed_allocs.append(("new", last_id, t.line))
                i += 1
                continue
            if t.text in ("make_unique", "make_shared") and nxt == "<":
                # explicit-template-arg allocation: record the allocated
                # type (first identifier inside the angle brackets)
                k, depth, first_id = i + 1, 0, None
                while k < n:
                    tk = toks[k].text
                    if tk == "<":
                        depth += 1
                    elif tk in (">", ">>"):
                        depth -= 2 if tk == ">>" else 1
                        if depth <= 0:
                            break
                    elif toks[k].kind == "id" and first_id is None:
                        first_id = toks[k].text
                    k += 1
                if first_id is not None:
                    fn.typed_allocs.append(
                        (t.text + "<>", first_id, t.line))
            # qualified banned chains (std::rand, std::chrono::steady_clock)
            chain_hit = False
            for chain, what in BANNED_QUALIFIED.items():
                if t.text == chain[0]:
                    k, ok = i, True
                    for part in chain[1:]:
                        if k + 2 < n and toks[k + 1].text == "::" and \
                                toks[k + 2].text == part:
                            k += 2
                        else:
                            ok = False
                            break
                    if ok and prev != "::":
                        fn.banned.append((what, t.line))
                        # skip past the chain so its tail (e.g. `rand`)
                        # is not re-reported as a bare banned call
                        i = k + 1
                        chain_hit = True
                        break
            if chain_hit:
                continue
            if nxt == "(" and t.text not in CPP_KEYWORDS:
                bare = prev not in (".", "->", "::")
                global_scope = (prev == "::" and
                                (i < 2 or toks[i - 2].kind != "id"))
                if (bare or global_scope) and t.text in BANNED_BARE_CALLS:
                    fn.banned.append((BANNED_BARE_CALLS[t.text], t.line))
                elif (bare or global_scope) and t.text in BANNED_TIME_LIKE:
                    rp = match_paren(toks, i + 1)
                    args = [a.text for a in toks[i + 2:rp]]
                    if args in ([], ["NULL"], ["nullptr"], ["0"]):
                        fn.banned.append((t.text + "() wall clock", t.line))
                fn.calls.append((t.text, t.line, call_receiver(toks, i)))
                if t.text == "Lookahead":
                    fn.lookahead_ctors.append(t.line)
                if t.text in SCHEDULING_CALLS:
                    fn.schedules = True
                    rp = match_paren(toks, i + 1)
                    scan_sched_captures(fn, toks, i + 1, rp)
                    record_sched_site(fn, toks, i, rp)
        i += 1


def record_sched_site(fn: FunctionDef, toks, i, rp):
    """Records one scheduling call for the pdes rule: the callee, the
    token texts of its first argument (the delay / lookahead expression),
    and any conduit-method calls made inside the argument span. Nested
    scheduling calls are skipped — each gets its own site with its own
    verdict, so an inner schedule_remote hand-off never taints the outer
    call's locality claim."""
    callee = toks[i].text
    lp = i + 1
    first_arg = []
    k, depth = lp + 1, 0
    while k < rp:
        tt = toks[k].text
        if tt in ("(", "[", "{"):
            depth += 1
        elif tt in (")", "]", "}"):
            depth -= 1
        elif tt == "," and depth == 0:
            break
        first_arg.append(tt)
        k += 1
    conduits = []
    k = lp + 1
    while k < rp:
        t = toks[k]
        if t.kind == "id" and t.text in SCHEDULING_CALLS and \
                k + 1 < rp and toks[k + 1].text == "(":
            k = match_paren(toks, k + 1)
            continue
        if t.kind == "id" and t.text in PDES_CONDUIT_METHODS and \
                k + 1 < rp and toks[k + 1].text == "(" and \
                toks[k - 1].text in (".", "->"):
            conduits.append((t.text, t.line))
        k += 1
    fn.sched_sites.append((callee, toks[i].line, tuple(first_arg),
                           tuple(conduits)))


def scan_sched_captures(fn: FunctionDef, toks, lp, rp):
    """Records the capture list of every lambda literal in the argument
    span toks[lp+1:rp] of a schedule_at/schedule_after call. A `[` opens a
    capture list only in expression position (after `(`/`,`/an operator);
    after an identifier or `)`/`]` it is a subscript."""
    k = lp + 1
    while k < rp:
        t = toks[k]
        if t.text == "[" and k > 0 and \
                toks[k - 1].kind not in ("id", "num") and \
                toks[k - 1].text not in (")", "]"):
            depth = 0
            close = k
            while close < rp:
                if toks[close].text == "[":
                    depth += 1
                elif toks[close].text == "]":
                    depth -= 1
                    if depth == 0:
                        break
                close += 1
            parts = [[tt.text for tt in p]
                     for p in split_params(toks, k, close)]
            fn.sched_captures.append((parts, t.line))
            k = close
        k += 1


def find_function_defs(toks, file, model: TUModel):
    """Scans the token stream for function definitions (free functions,
    out-of-line methods, class-inline methods) and hands each body to
    scan_body/extract_*. Function bodies are identified as
    `name ( ... ) [const|noexcept|override|final|-> T]* [: init-list] {`;
    everything inside the braces belongs to the function, including
    lambdas."""
    n = len(toks)
    i = 0
    while i < n:
        t = toks[i]
        if t.text == "(" and i > 0 and toks[i - 1].kind == "id" and \
                toks[i - 1].text not in CPP_KEYWORDS:
            rp = match_paren(toks, i)
            # scan what follows the parameter list
            j = rp + 1
            saw_init_list = False
            while j < n:
                tj = toks[j].text
                if tj in ("const", "noexcept", "override", "final",
                          "mutable"):
                    j += 1
                elif tj == "->":  # trailing return type
                    j += 1
                    while j < n and toks[j].text not in ("{", ";", "="):
                        j += 1
                elif tj == ":" and not saw_init_list:
                    saw_init_list = True
                    j += 1
                    # skip the ctor init list: consume balanced (...) / {...}
                    # pairs that directly follow an identifier or '>'
                    while j < n:
                        tt = toks[j].text
                        if tt == "(":
                            j = match_paren(toks, j) + 1
                        elif tt == "{" and j > 0 and (
                                toks[j - 1].kind == "id" or
                                toks[j - 1].text in (">", ">>")):
                            j = match_brace(toks, j) + 1
                        elif tt == "{":
                            break  # the body
                        elif tt == ";":
                            break
                        else:
                            j += 1
                elif tj == "noexcept" or tj == "(":
                    j += 1
                else:
                    break
            if j < n and toks[j].text == "{":
                # qualified name: walk back over id (:: id)* and ~dtor
                name_parts = [toks[i - 1].text]
                k = i - 1
                while k >= 2 and toks[k - 1].text == "::" and \
                        toks[k - 2].kind == "id":
                    name_parts.insert(0, toks[k - 2].text)
                    k -= 2
                if k >= 1 and toks[k - 1].text == "~":
                    name_parts[0] = "~" + name_parts[0]
                # reject control flow shapes and calls: the token before the
                # name must not suggest an expression context
                before = toks[k - 1].text if k >= 1 else ""
                if before in (".", "->", "=", "return", ",", "(", "&&",
                              "||", "!"):
                    i = rp
                    continue
                be = match_brace(toks, j)
                fn = FunctionDef(
                    name="::".join(name_parts), simple=name_parts[-1],
                    file=file, line=toks[i - 1].line)
                collect_decl_types(toks, i + 1, be, fn.decl_types)
                fn.return_label = return_label(toks, k)
                fn.heavy_params = heavy_value_params(toks, i, rp)
                fn.packet_params = raw_packet_params(toks, i, rp)
                scan_body(fn, toks, j + 1, be)
                extract_switches(toks, j + 1, be, file, fn.switches)
                extract_range_fors(toks, j + 1, be, fn.range_fors)
                model.functions.append(fn)
                i = be
                continue
            i = rp
            continue
        i += 1


def attribute_owners(model: TUModel):
    """Assigns each function its owning class: the qualifier for
    out-of-line `X::f` definitions, else the innermost class whose body
    span contains the definition line."""
    for fn in model.functions:
        if "::" in fn.name:
            fn.owner = fn.name.split("::")[-2]
            continue
        best = None
        for cd in model.classes:
            if cd.line <= fn.line <= cd.end_line:
                if best is None or \
                        (cd.end_line - cd.line) < (best.end_line - best.line):
                    best = cd
        if best is not None:
            fn.owner = best.name


def text_parse_file(path: Path, rel: str) -> TUModel:
    source = path.read_text(encoding="utf-8")
    toks, comments = tokenize(source)
    model = TUModel(file=rel, comments=comments)
    parse_enums(toks, model.enums)
    collect_unordered_decls(toks, model.unordered_decls)
    collect_container_decls(toks, model.ordered_decls, is_ordered_tok)
    collect_decl_types(toks, 0, len(toks), model.decl_types)
    parse_classes(toks, rel, model.classes)
    find_function_defs(toks, rel, model)
    attribute_owners(model)
    # .raw() / ->raw() escapes, anywhere in the file
    for i, t in enumerate(toks):
        if t.text == "raw" and t.kind == "id" and i > 0 and \
                toks[i - 1].text in (".", "->") and \
                i + 1 < len(toks) and toks[i + 1].text == "(":
            model.raw_calls.append(t.line)
    # sa-hot annotations: a marker on the definition line or up to two
    # lines above it marks the function as a hot root.
    hot_lines = {ln for ln, c in comments.items() if SA_HOT_RE.search(c)}
    for fn in model.functions:
        if any(ln in hot_lines for ln in range(fn.line - 2, fn.line + 1)):
            fn.is_hot = True
    return model


# =============================================================================
# Suppressions
# =============================================================================

def collect_suppressions(model: TUModel):
    """Parses sa-ok(<rule>): comments; returns (suppressions, findings for
    malformed ones). Coverage: the comment's own line plus lines below to
    the first blank-of-comments... — reach is computed against the source
    lines at check time (see covered_lines)."""
    sups: list[Suppression] = []
    findings: list[Finding] = []
    for line, text in sorted(model.comments.items()):
        for m in SA_OK_RE.finditer(text):
            rule, just = m.group(1), m.group(2).strip()
            if rule not in RULES or rule == "sa-suppression":
                findings.append(Finding(
                    "sa-suppression", model.file, line,
                    f"sa-ok names unknown rule '{rule}' "
                    f"(valid: {', '.join(RULES[:-1])})"))
                continue
            if not just:
                findings.append(Finding(
                    "sa-suppression", model.file, line,
                    f"sa-ok({rule}) carries no justification — write why "
                    f"the escape is sound"))
                continue
            sups.append(Suppression(rule, model.file, line, just))
    return sups, findings


def suppression_cover(sups, source_lines):
    """rule -> set of covered line numbers (1-based). A suppression covers
    its own line and the lines below it up to the first blank line, capped
    at SUPPRESSION_REACH (the historical unit-raw comment reach)."""
    cover: dict[str, dict[int, Suppression]] = {}
    # Later (nearer) suppressions override earlier ones on overlap, so a
    # finding is always charged to the closest justification above it —
    # otherwise stacked paragraphs mark the nearer comment unused.
    for s in sorted(sups, key=lambda s: s.line):
        lines = cover.setdefault(s.rule, {})
        lines[s.line] = s
        for ln in range(s.line + 1,
                        min(s.line + 1 + SUPPRESSION_REACH,
                            len(source_lines) + 1)):
            if not source_lines[ln - 1].strip():
                break
            lines[ln] = s
    return cover


# =============================================================================
# Rule engine
# =============================================================================

class Analyzer:
    def __init__(self, models, files_text, hot_scope, kind_enum_paths,
                 factory_files=(), lookahead_files=()):
        self.models = models
        self.files_text = files_text  ##< rel -> list of source lines
        self.hot_scope = hot_scope
        self.kind_enum_paths = kind_enum_paths
        self.factory_files = set(factory_files)
        self.lookahead_files = set(lookahead_files)
        self.findings: list[Finding] = []
        self.suppressions: list[Suppression] = []
        self.cover: dict[str, dict[str, dict[int, Suppression]]] = {}
        # global indexes
        self.by_simple: dict[str, list[FunctionDef]] = {}
        self.unordered: set = set()
        self.enums: dict[str, tuple[str, list[str]]] = {}
        for m in models:
            for fn in m.functions:
                self.by_simple.setdefault(fn.simple, []).append(fn)
            self.unordered |= m.unordered_decls
            for name, enumerators in m.enums.items():
                self.enums[name] = (m.file, enumerators)
        self.enum_of_label: dict[str, str] = {}
        for name, (_, enumerators) in self.enums.items():
            for e in enumerators:
                self.enum_of_label.setdefault(e, name)
        # --- v2 registries: classes, ownership domains, event queues -------
        self.classes: dict[str, ClassDef] = {}
        for m in models:
            for cd in m.classes:
                self.classes.setdefault(cd.name, cd)
        self._domain_memo: dict[str, object] = {}
        # field name -> owning domain. Names declared by classes in two
        # different domains, or by a class the model cannot place, are
        # dropped from the registry (conservative: no finding beats a wrong
        # finding for a ratcheted tool).
        self.field_domain: dict = {}
        self.field_class: dict = {}
        ambiguous: set = set()
        for cd in self.classes.values():
            dom = self.domain_of_class(cd.name)
            for fname, _ftype, _fline in cd.fields:
                if fname in ambiguous:
                    continue
                if fname in self.field_domain:
                    if self.field_domain[fname] != dom:
                        ambiguous.add(fname)
                        del self.field_domain[fname]
                        del self.field_class[fname]
                    continue
                if dom is None:
                    ambiguous.add(fname)
                    continue
                self.field_domain[fname] = dom
                self.field_class[fname] = cd.name
        self.virtuals: set = set()
        self.eventq_fields: set = set()
        for cd in self.classes.values():
            self.virtuals |= cd.virtual_methods
            self.eventq_fields |= cd.eventq_members
        self.ordered: set = set()
        for m in models:
            self.ordered |= m.ordered_decls
        ##< ranked cost sites for sa_hot_cost.json (includes suppressed
        ##< ones, flagged as such — the report is a worklist, not a verdict)
        self.hot_cost_sites: list = []
        ##< lifetime escape sites for sa_lifetime.json — same contract:
        ##< every site, suppressed or not; the pool's standing audit ledger
        self.lifetime_sites: list = []
        ##< scheduling sites classified for sa_pdes.json — the lookahead
        ##< table a sharded scheduler would consume (every site, any kind)
        self.pdes_sites: list = []
        # accessor name -> (returned class, domain): method-return escapes.
        # Same conservatism as field_domain: a name returning classes in
        # two different domains is dropped; sim-state domains only (the
        # packet conduit and harness glue never constitute an escape).
        self.accessor_domain: dict = {}
        acc_ambiguous: set = set()
        for cd in self.classes.values():
            for aname, rclass in cd.accessor_returns.items():
                rdom = self.domain_of_class(rclass)
                if rdom in (None, DOMAIN_PACKET, DOMAIN_HARNESS):
                    continue
                if aname in acc_ambiguous:
                    continue
                if aname in self.accessor_domain:
                    if self.accessor_domain[aname][1] != rdom:
                        acc_ambiguous.add(aname)
                        del self.accessor_domain[aname]
                    continue
                self.accessor_domain[aname] = (rclass, rdom)
        self._packet_type_memo: dict[str, bool] = {}
        # --- call resolution by receiver type ----------------------------
        # A declared name keeps its type label only when every declaration
        # across the tree agrees; the function's own parameters and locals
        # are consulted first (FunctionDef.decl_types).
        merged: dict = {}
        for m in models:
            for name, labels in m.decl_types.items():
                merged.setdefault(name, set()).update(labels)
        self.global_types = {name: next(iter(labels))
                             for name, labels in merged.items()
                             if len(labels) == 1}
        returns: dict = {}
        for m in models:
            for fn in m.functions:
                returns.setdefault(fn.simple, set()).add(fn.return_label)
        self.return_types = {name: next(iter(labels))
                             for name, labels in returns.items()
                             if len(labels) == 1}
        self.methods: dict = {}   ##< (owner, simple) -> [FunctionDef]
        self.free_fns: dict = {}  ##< simple -> [FunctionDef], no owner
        for m in models:
            for fn in m.functions:
                if fn.owner:
                    self.methods.setdefault(
                        (fn.owner, fn.simple), []).append(fn)
                else:
                    self.free_fns.setdefault(fn.simple, []).append(fn)
        self.derived: dict = {}  ##< class -> direct subclasses
        for cd in self.classes.values():
            for b in cd.bases:
                self.derived.setdefault(b, set()).add(cd.name)
        self._family_memo: dict = {}
        self._resolve_memo: dict = {}

    def is_packet_type(self, name: str) -> bool:
        """Packet-type registry: the `Packet` base, anything whose name
        ends in `Packet` (the project's naming convention for every wire
        object), and anything whose base-class chain reaches either."""
        if name in self._packet_type_memo:
            return self._packet_type_memo[name]
        self._packet_type_memo[name] = False  # cycle guard
        result = name == "Packet" or name.endswith("Packet")
        if not result:
            cd = self.classes.get(name)
            if cd is not None:
                result = any(self.is_packet_type(b) for b in cd.bases)
        self._packet_type_memo[name] = result
        return result

    def domain_of_class(self, name: str):
        """Ownership domain for a class: its own name, then its base-class
        chain, then the path of its declaring file (DESIGN.md §12)."""
        if name in self._domain_memo:
            return self._domain_memo[name]
        self._domain_memo[name] = None  # cycle guard for base loops
        dom = domain_of_name(name)
        cd = self.classes.get(name)
        if dom is None and cd is not None:
            for b in cd.bases:
                dom = self.domain_of_class(b) if b in self.classes \
                    else domain_of_name(b)
                if dom is not None:
                    break
        if dom is None and cd is not None:
            for prefix, pdom in DOMAIN_PATHS:
                if cd.file.startswith(prefix):
                    dom = pdom
                    break
        self._domain_memo[name] = dom
        return dom

    # --- helpers -----------------------------------------------------------

    def class_family(self, cls: str) -> set:
        """`cls`, its base chain and every class derived from it: the
        classes whose member a call through a `cls` receiver can run."""
        if cls in self._family_memo:
            return self._family_memo[cls]
        family = {cls}
        stack = [cls]
        while stack:  # bases
            cd = self.classes.get(stack.pop())
            for b in (cd.bases if cd is not None else ()):
                if b not in family:
                    family.add(b)
                    stack.append(b)
        stack = [cls]
        while stack:  # overrides
            for d in self.derived.get(stack.pop(), ()):
                if d not in family:
                    family.add(d)
                    stack.append(d)
        self._family_memo[cls] = family
        return family

    def family_methods(self, cls: str, name: str) -> list:
        return [f for c in sorted(self.class_family(cls))
                for f in self.methods.get((c, name), ())]

    def resolve_call(self, fn: FunctionDef, name: str, recv):
        """Classifies one call of `fn` by its receiver's declared type and
        returns (kind, targets):

          "std"      the receiver is a std container (or the call is
                     std::-qualified): it may allocate, but it never runs
                     project code, whatever a project member is named;
          "project"  a bare or this-> call to a method of fn's class family,
                     a bare call to a free project function, or a call
                     through a receiver of project-class type: it runs
                     exactly those functions and is not itself a std
                     allocation, even when named `append` or `insert`;
          "unknown"  the receiver cannot be typed: resolved by simple name,
                     and an ALLOC_CALLS name also counts as an allocation."""
        memo_key = (fn.file, fn.name, fn.line, name, recv)
        hit = self._resolve_memo.get(memo_key)
        if hit is not None:
            return hit
        by_name = self.by_simple.get(name, [])
        result = ("unknown", by_name)
        if recv == "::std":
            result = ("std", [])
        elif recv in ("", "this"):
            members = self.family_methods(fn.owner, name) if fn.owner \
                else []
            if members:
                result = ("project", members)
            elif recv == "" and name in self.free_fns:
                result = ("project", self.free_fns[name])
        elif recv is not None and recv.startswith("::"):
            members = self.family_methods(recv[2:], name)
            if members:
                result = ("project", members)
            elif by_name:
                result = ("project", by_name)
        elif recv is not None:
            label = self.receiver_label(fn, recv)
            if label is not None and label.startswith("std::"):
                result = ("std", [])
            elif label in self.classes:
                members = self.family_methods(label, name)
                if members:
                    result = ("project", members)
        self._resolve_memo[memo_key] = result
        return result

    def receiver_label(self, fn: FunctionDef, recv: str):
        """Declared type label of a named receiver: fn's own parameters and
        locals first, then the tree-wide registry; a call result `()f` is
        typed by f's return type. None when declarations disagree."""
        if recv.startswith("()"):
            return self.return_types.get(recv[2:])
        labels = fn.decl_types.get(recv)
        if labels:
            return next(iter(labels)) if len(labels) == 1 else None
        return self.global_types.get(recv)

    def callees(self, fn: FunctionDef):
        for name, _line, recv in fn.calls:
            yield from self.resolve_call(fn, name, recv)[1]

    def alloc_sites(self, fn: FunctionDef):
        """fn's allocations: `new` plus ALLOC_CALLS-named calls that are not
        project calls (see resolve_call)."""
        sites = list(fn.allocs)
        for name, line, recv in fn.calls:
            if name in ALLOC_CALLS and \
                    self.resolve_call(fn, name, recv)[0] != "project":
                sites.append((name + "()", line))
        return sites

    def emit(self, finding: Finding):
        file_cover = self.cover.get(finding.file, {})
        sup = file_cover.get(finding.rule, {}).get(finding.line)
        if sup is not None:
            sup.used = True
            return
        self.findings.append(finding)

    def reachable_from(self, roots, scope_prefixes=None):
        seen = set()
        frontier = list(roots)
        while frontier:
            fn = frontier.pop()
            key = (fn.file, fn.name, fn.line)
            if key in seen:
                continue
            seen.add(key)
            for target in self.callees(fn):
                if scope_prefixes is not None and not any(
                        target.file.startswith(p)
                        for p in scope_prefixes):
                    continue
                frontier.append(target)
        return seen

    def find_path(self, root, goal_key, scope_prefixes=None):
        """BFS path of function names from root to the function with key
        goal_key, for diagnostics."""
        from collections import deque
        q = deque([(root, [root.name])])
        seen = set()
        while q:
            fn, path = q.popleft()
            key = (fn.file, fn.name, fn.line)
            if key == goal_key:
                return path
            if key in seen:
                continue
            seen.add(key)
            for target in self.callees(fn):
                if scope_prefixes is not None and not any(
                        target.file.startswith(p)
                        for p in scope_prefixes):
                    continue
                q.append((target, path + [target.name]))
        return []

    # --- rules -------------------------------------------------------------

    def run(self):
        for m in self.models:
            sups, malformed = collect_suppressions(m)
            self.suppressions.extend(sups)
            self.findings.extend(malformed)
            self.cover[m.file] = suppression_cover(
                sups, self.files_text[m.file])

        self.rule_determinism()
        self.rule_packet_switch()
        self.rule_shard_ownership()
        self.rule_hot_alloc()
        self.rule_hot_cost()
        self.rule_unit_raw()
        self.rule_lifetime()
        self.rule_pdes()
        self.rule_unused_suppressions()
        self.findings.sort(key=lambda f: (f.file, f.line, f.rule))
        return self.findings

    def rule_determinism(self):
        roots = [fn for m in self.models for fn in m.functions
                 if fn.simple in EVENT_ROOT_NAMES or fn.schedules]
        reachable = self.reachable_from(roots)
        for m in self.models:
            for fn in m.functions:
                key = (fn.file, fn.name, fn.line)
                in_event = key in reachable
                for what, line in fn.banned:
                    path = []
                    if in_event:
                        for r in roots:
                            path = self.find_path(r, key)
                            if path:
                                break
                    self.emit(Finding(
                        "determinism", fn.file, line,
                        f"{what} breaks bit-reproducible runs; use "
                        f"util/rng.h / the Simulator clock"
                        + (f" [event-reachable via "
                           f"{' -> '.join(path)}]" if path else ""),
                        path))
                if not in_event:
                    continue
                for target, line in fn.range_fors:
                    if target in self.unordered:
                        self.emit(Finding(
                            "determinism", fn.file, line,
                            f"iteration over unordered container "
                            f"'{target}' in event-reachable "
                            f"{fn.name}(): bucket order is address/"
                            f"library-dependent and can escape into "
                            f"simulation state — iterate a sorted view "
                            f"or justify with sa-ok(determinism)"))

    def rule_packet_switch(self):
        kind_enums = {
            name: enumerators
            for name, (file, enumerators) in self.enums.items()
            if KIND_ENUM_RE.search(name) and
            (not self.kind_enum_paths or
             any(file.startswith(p) for p in self.kind_enum_paths))}
        label_owner = {}
        for name, enumerators in kind_enums.items():
            for e in enumerators:
                label_owner[e] = name
        for m in self.models:
            for fn in m.functions:
                for sw in fn.switches:
                    owners = {label_owner[lb] for lb in sw.labels
                              if lb in label_owner}
                    if len(owners) != 1:
                        continue
                    enum_name = owners.pop()
                    missing = [e for e in kind_enums[enum_name]
                               if e not in sw.labels]
                    if not missing:
                        continue
                    if sw.has_default:
                        msg = (f"switch over {enum_name} hides "
                               f"{', '.join(missing)} behind its default — "
                               f"enumerate them or audit the default with "
                               f"sa-ok(packet-switch)")
                    else:
                        msg = (f"switch over {enum_name} does not handle "
                               f"{', '.join(missing)} and has no default")
                    self.emit(Finding("packet-switch", sw.file, sw.line, msg))

    def ownership_roots(self):
        """Event-reachability roots shared by shard-ownership and pdes:
        the per-event callbacks plus any scheduler whose own class lives in
        a sharded domain (narrower than EVENT_ROOT_NAMES — see the comment
        on OWNERSHIP_ROOT_NAMES)."""
        roots = []
        for m in self.models:
            for fn in m.functions:
                if fn.simple in OWNERSHIP_ROOT_NAMES:
                    roots.append(fn)
                elif fn.schedules and fn.owner and \
                        self.domain_of_class(fn.owner) not in (
                            None, DOMAIN_HARNESS):
                    roots.append(fn)
        return roots

    def rule_shard_ownership(self):
        """A write reachable from an event callback must stay inside the
        writer's ownership domain. Crossing is legal only through Packet
        hand-off (Packet fields are the conduit and never flagged) or the
        schedule API (a scheduled lambda runs as its own event; state it
        captures is re-rooted there)."""
        roots = self.ownership_roots()
        reachable = self.reachable_from(roots)
        reported = set()
        for m in self.models:
            for fn in m.functions:
                key = (fn.file, fn.name, fn.line)
                if key not in reachable:
                    continue
                wdom = self.domain_of_class(fn.owner) if fn.owner else None
                if wdom is None or wdom == DOMAIN_HARNESS:
                    # free functions and harness glue are not shard bodies
                    continue
                for root_name, field_name, line in fn.writes:
                    fdom = self.field_domain.get(field_name)
                    if fdom is None or fdom == DOMAIN_PACKET:
                        continue
                    if fdom == wdom:
                        continue
                    if (fn.file, line) in reported:
                        continue
                    reported.add((fn.file, line))
                    path = []
                    for r in roots:
                        path = self.find_path(r, key)
                        if path:
                            break
                    via = (f" [event-reachable via {' -> '.join(path)}]"
                           if len(path) > 1 else "")
                    dotted = f"{root_name}.{field_name}" if root_name \
                        else field_name
                    self.emit(Finding(
                        "shard-ownership", fn.file, line,
                        f"{fn.name}() in domain {wdom} writes {dotted}, "
                        f"owned by {self.field_class.get(field_name)} in "
                        f"domain {fdom}{via} — cross-domain mutation blocks "
                        f"one-shard-per-domain parallelism; hand off via a "
                        f"Packet, go through the schedule API, or justify "
                        f"with sa-ok(shard-ownership)", path))

    def rule_hot_cost(self):
        """Per-event cost beyond allocation on sa-hot-reachable paths:
        heavy pass-by-value copies, virtual dispatch, ordered std::map/set
        lookups, and event-queue operations (type-recognized via
        ClassDef.eventq_members plus the schedule API itself). Every site —
        suppressed or not — lands in hot_cost_sites for the ranked
        sa_hot_cost.json report; unsuppressed sites are findings."""
        hot_roots = [fn for m in self.models for fn in m.functions
                     if fn.is_hot]
        reachable = self.reachable_from(hot_roots, self.hot_scope)
        reported = set()
        for m in self.models:
            for fn in m.functions:
                key = (fn.file, fn.name, fn.line)
                if key not in reachable:
                    continue
                sites = []
                for ptype, pname, line in fn.heavy_params:
                    sites.append((
                        "heavy-copy", line,
                        f"parameter '{pname}' of {fn.name}() copies a "
                        f"std::{ptype} by value on the hot path — pass by "
                        f"const& (or std::move at every call site)"))
                for base, method, line in fn.member_calls:
                    if method in self.virtuals:
                        sites.append((
                            "virtual-dispatch", line,
                            f"virtual dispatch {base or '<expr>'}->"
                            f"{method}() on the hot path — the indirect "
                            f"call blocks inlining per packet"))
                    if method in ORDERED_LOOKUP_CALLS and \
                            base in self.ordered:
                        sites.append((
                            "map-lookup", line,
                            f"ordered std::map/set lookup {base}."
                            f"{method}() costs O(log n) pointer chasing "
                            f"per event — prefer a flat or hashed "
                            f"container"))
                    if method in HEAP_MUTATION_CALLS and \
                            base in self.eventq_fields:
                        sites.append((
                            "heap-op", line,
                            f"event-queue storage operation {base}."
                            f"{method}() — paid on every event that "
                            f"reaches it"))
                for callee, line, _recv in fn.calls:
                    # The scheduling API's own forwarding shims are where
                    # every timer legitimately enters the heap; the push
                    # is charged once, at the call site into the API, not
                    # again inside each one-line forwarder.
                    if callee in SCHEDULING_CALLS and \
                            fn.simple not in SCHEDULING_CALLS:
                        sites.append((
                            "heap-op", line,
                            f"{callee}() pushes into the simulator event "
                            f"queue from the hot path — one queue insert "
                            f"per call"))
                for cat, line, msg in sites:
                    if (fn.file, line, cat) in reported:
                        continue
                    reported.add((fn.file, line, cat))
                    sup = self.cover.get(fn.file, {}).get(
                        "hot-cost", {}).get(line)
                    self.hot_cost_sites.append({
                        "category": cat,
                        "weight": HOT_COST_WEIGHTS[cat],
                        "file": fn.file,
                        "line": line,
                        "function": fn.name,
                        "detail": msg,
                        "suppressed": sup is not None,
                        "justification":
                            sup.justification if sup is not None else "",
                    })
                    self.emit(Finding(
                        "hot-cost", fn.file, line,
                        msg + " — or acknowledge with sa-ok(hot-cost)"))

    def rule_hot_alloc(self):
        hot_roots = [fn for m in self.models for fn in m.functions
                     if fn.is_hot]
        reachable = self.reachable_from(hot_roots, self.hot_scope)
        reported = set()
        for m in self.models:
            for fn in m.functions:
                key = (fn.file, fn.name, fn.line)
                if key not in reachable:
                    continue
                for what, line in self.alloc_sites(fn):
                    if (fn.file, line, what) in reported:
                        continue
                    reported.add((fn.file, line, what))
                    path = []
                    for r in hot_roots:
                        path = self.find_path(r, key, self.hot_scope)
                        if path:
                            break
                    via = (f" [hot path: {' -> '.join(path)}]"
                           if len(path) > 1 else "")
                    self.emit(Finding(
                        "hot-alloc", fn.file, line,
                        f"{what} allocates on the sa-hot per-packet path "
                        f"{fn.name}(){via} — preallocate, pool, or justify "
                        f"with sa-ok(hot-alloc)", path))

    def rule_unit_raw(self):
        for m in self.models:
            for line in m.raw_calls:
                self.emit(Finding(
                    "unit-raw", m.file, line,
                    ".raw() strong-type escape without an sa-ok(unit-raw) "
                    "justification"))

    def _lifetime_site(self, escape_class, file, line, msg):
        """Records one lifetime escape: a row in the sa_lifetime.json
        ledger (suppressed or not) and, when unjustified, a finding."""
        sup = self.cover.get(file, {}).get("lifetime", {}).get(line)
        self.lifetime_sites.append({
            "class": escape_class,
            "file": file,
            "line": line,
            "detail": msg,
            "suppressed": sup is not None,
            "justification": sup.justification if sup is not None else "",
        })
        self.emit(Finding(
            "lifetime", file, line,
            msg + " — or justify with sa-ok(lifetime)"))

    def rule_lifetime(self):
        """Flow-insensitive escape analysis for packets and event
        callbacks (DESIGN.md §13). The pool contract: a packet's lifetime
        ends when its PacketPtr is destroyed (delivery, drop, or fault
        kill), at which point it may be recycled — so nothing may hold a
        raw pointer/reference past that instant. Three escape classes:
        raw packet fields, by-reference (or raw-packet-by-value) captures
        in scheduled lambdas, and packet allocation outside the factory
        files that guarantee pool hygiene."""
        reported = set()
        # (a) field-escape: declaration-based — *having* a raw packet
        # field is the hazard; flow-insensitivity means we never have to
        # prove a store happens, the field's existence is the finding.
        for cd in self.classes.values():
            for fname, ftype, fline in cd.fields:
                ttoks = ftype.split()
                if "*" not in ttoks and "&" not in ttoks:
                    continue
                if any(w in ttoks for w in OWNING_WRAPPERS):
                    continue
                if not any(tt[0].isalpha() and self.is_packet_type(tt)
                           for tt in ttoks if tt):
                    continue
                if (cd.file, fline, "field-escape") in reported:
                    continue
                reported.add((cd.file, fline, "field-escape"))
                self._lifetime_site(
                    "field-escape", cd.file, fline,
                    f"field {cd.name}::{fname} holds a raw packet "
                    f"pointer/reference ({ftype.strip()}) that survives "
                    f"the delivery call chain — a recycled packet leaves "
                    f"it dangling; own it via PacketPtr or copy what you "
                    f"need")
        for m in self.models:
            for fn in m.functions:
                # (b) callback-capture-escape: scheduled lambdas run at
                # event time, after the scheduling frame is gone.
                pparams = set(fn.packet_params)
                for parts, line in fn.sched_captures:
                    for p in parts:
                        if not p or p[0] in ("this", "*", "="):
                            # [=] copies; [this]/[*this] pin the object,
                            # whose lifetime the scheduler already owns
                            continue
                        key = (fn.file, line, "callback-capture")
                        if p[0] == "&" and len(p) == 1:
                            if key in reported:
                                continue
                            reported.add(key)
                            self._lifetime_site(
                                "callback-capture", fn.file, line,
                                f"lambda scheduled from {fn.name}() "
                                f"default-captures by reference — every "
                                f"capture dangles once the scheduling "
                                f"frame returns; capture by value/move")
                        elif p[0] == "&" and len(p) >= 2:
                            if key in reported:
                                continue
                            reported.add(key)
                            self._lifetime_site(
                                "callback-capture", fn.file, line,
                                f"lambda scheduled from {fn.name}() "
                                f"captures '&{p[1]}' — the reference "
                                f"dangles once the scheduling frame "
                                f"returns; capture by value/move")
                        elif p[0] in pparams and "=" not in p:
                            if key in reported:
                                continue
                            reported.add(key)
                            self._lifetime_site(
                                "callback-capture", fn.file, line,
                                f"lambda scheduled from {fn.name}() "
                                f"captures raw packet parameter "
                                f"'{p[0]}' by value — the packet is "
                                f"recycled when its owner releases it, "
                                f"before the event fires; move the "
                                f"PacketPtr in or copy the fields")
                # (c) factory-discipline: packet allocation outside the
                # sanctioned factory files bypasses pool hygiene.
                for what, tname, line in fn.typed_allocs:
                    if not self.is_packet_type(tname):
                        continue
                    if fn.file in self.factory_files:
                        continue
                    key = (fn.file, line, "factory")
                    if key in reported:
                        continue
                    reported.add(key)
                    self._lifetime_site(
                        "factory", fn.file, line,
                        f"{what} allocates packet type {tname} in "
                        f"{fn.name}() outside the sanctioned factory "
                        f"(src/net/host.{{h,cpp}}, "
                        f"src/net/packet_pool.{{h,cpp}}) — pooled "
                        f"recycling and reset_transient() hygiene are "
                        f"bypassed; go through the Host factories")

    def rule_pdes(self):
        """Conservative-PDES lookahead safety (DESIGN.md §15), over code
        event-reachable from the ownership roots and owned by a sharded
        domain. Four checks:
        (1) raw-schedule: schedule_at/schedule_after say nothing about the
            target domain — a sharded caller must use schedule_local (same
            domain; zero delay is fine) or schedule_remote (cross-domain;
            carries a link Lookahead). A literal-zero raw delay is the
            classical zero-lookahead hazard and is called out as such.
        (2) local-conduit: a schedule_local lambda that calls a conduit
            method (Device::receive / Port::set_paused) crosses the domain
            boundary while claiming locality.
        (3) lookahead-provenance: sim::Lookahead may only be constructed
            at the link seam (Port::link_lookahead), so every remote bound
            traces to a physical propagation delay — and the Lookahead
            constructor's > 0 check makes each bound >= 1 ps statically.
        (4) accessor-escape: the method-return extension of the
            shard-ownership field registry — a write rooted at an accessor
            that returns a mutable reference into another domain's class
            crosses shards without a Packet or a scheduled event.
        The scheduling API's own forwarding shims (functions whose simple
        name is in SCHEDULING_CALLS) are the implementation, not call
        sites. Every scheduling site — compliant or not — lands in
        pdes_sites for the sa_pdes.json lookahead table."""
        roots = self.ownership_roots()
        reachable = self.reachable_from(roots)
        reported = set()
        for m in self.models:
            for fn in m.functions:
                # (3) applies everywhere: provenance is a property of the
                # construction site, not of event reachability.
                for line in fn.lookahead_ctors:
                    if fn.file in self.lookahead_files:
                        continue
                    if (fn.file, line, "lookahead") in reported:
                        continue
                    reported.add((fn.file, line, "lookahead"))
                    self.emit(Finding(
                        "pdes", fn.file, line,
                        f"Lookahead constructed in {fn.name}() outside the "
                        f"link seam — cross-domain bounds must come from "
                        f"Port::link_lookahead() so they trace to a link's "
                        f"propagation delay, not an arbitrary constant — "
                        f"or justify with sa-ok(pdes)"))
                key = (fn.file, fn.name, fn.line)
                in_event = key in reachable
                wdom = self.domain_of_class(fn.owner) if fn.owner else None
                sharded = in_event and wdom not in (None, DOMAIN_HARNESS)
                is_shim = fn.simple in SCHEDULING_CALLS
                for callee, line, arg0, conduits in fn.sched_sites:
                    kind = ("raw" if callee in PDES_RAW_CALLS else
                            "remote" if callee in PDES_REMOTE_CALLS else
                            "local")
                    if (fn.file, line, callee) in reported:
                        continue
                    reported.add((fn.file, line, callee))
                    sup = self.cover.get(fn.file, {}).get(
                        "pdes", {}).get(line)
                    self.pdes_sites.append({
                        "kind": kind,
                        "callee": callee,
                        "file": fn.file,
                        "line": line,
                        "function": fn.name,
                        "domain": wdom,
                        "event_reachable": in_event,
                        "delay_expr": " ".join(arg0),
                        "conduits": [c for c, _ in conduits],
                        "shim": is_shim,
                        "suppressed": sup is not None,
                        "justification":
                            sup.justification if sup is not None else "",
                    })
                    if not sharded or is_shim:
                        continue
                    if kind == "raw":
                        if tuple(arg0) in PDES_ZERO_ARG_FORMS:
                            self.emit(Finding(
                                "pdes", fn.file, line,
                                f"zero-delay {callee}() in sharded domain "
                                f"{wdom} — zero lookahead makes "
                                f"conservative parallel execution "
                                f"impossible; use schedule_local if the "
                                f"event stays in {fn.name}()'s own domain, "
                                f"or justify with sa-ok(pdes)"))
                        else:
                            self.emit(Finding(
                                "pdes", fn.file, line,
                                f"raw {callee}() in sharded domain {wdom} "
                                f"hides its delay provenance — use "
                                f"schedule_local / schedule_local_at for "
                                f"same-domain events or "
                                f"schedule_remote(link_lookahead(), ...) "
                                f"across domains, or justify with "
                                f"sa-ok(pdes)"))
                    elif kind == "local" and conduits:
                        names = ", ".join(sorted({c for c, _ in conduits}))
                        self.emit(Finding(
                            "pdes", fn.file, line,
                            f"{callee}() lambda in {fn.name}() calls "
                            f"conduit method(s) {names} — a "
                            f"receive/set_paused hand-off crosses the "
                            f"domain boundary, so the locality claim is "
                            f"false; use "
                            f"schedule_remote(link_lookahead(), ...) or "
                            f"justify with sa-ok(pdes)"))
                if not sharded:
                    continue
                # (4) accessor-escape: writes whose chain roots at a
                # mutable accessor into another domain's class.
                for root_name, field_name, line in fn.writes:
                    acc = self.accessor_domain.get(root_name)
                    if acc is None:
                        continue
                    rclass, rdom = acc
                    if rdom == wdom:
                        continue
                    if (fn.file, line, "accessor") in reported:
                        continue
                    reported.add((fn.file, line, "accessor"))
                    self.emit(Finding(
                        "pdes", fn.file, line,
                        f"{fn.name}() in domain {wdom} writes "
                        f"{root_name}().{field_name} through a mutable "
                        f"accessor into {rclass} (domain {rdom}) — a "
                        f"method-return escape crossing shards without a "
                        f"Packet or a scheduled event; move the write to "
                        f"the owning domain or justify with sa-ok(pdes)"))

    def rule_unused_suppressions(self):
        for s in self.suppressions:
            if not s.used:
                self.emit(Finding(
                    "sa-suppression", s.file, s.line,
                    f"sa-ok({s.rule}) suppresses nothing — the code it "
                    f"covered moved or was fixed; delete the comment"))


# =============================================================================
# Driver
# =============================================================================

def _tool_hash() -> str:
    return hashlib.sha256(Path(__file__).read_bytes()).hexdigest()


def _parse_one(payload):
    """Worker for the parallel text-frontend parse. Returns (model, hit).
    The cache key is sha256(tool-source || file-source): editing either the
    analyzer or the file invalidates the entry, so stale models are
    structurally impossible. Cache writes are atomic (tmp + rename) so
    concurrent workers never observe torn pickles."""
    path_str, rel, cache_dir, tool_hash, flag_salt = payload
    path = Path(path_str)
    source = path.read_bytes()
    key = None
    if cache_dir:
        # The flag salt folds the CLI analysis configuration (rule
        # selection, hot scope) into the key: the parsed model is
        # flag-independent today, but a cached entry must never be able to
        # outlive a flag change that could alter what gets extracted.
        digest = hashlib.sha256(
            tool_hash.encode("ascii") + b"\x00" +
            flag_salt.encode("utf-8") + b"\x00" + source).hexdigest()
        key = Path(cache_dir) / f"{digest}.pkl"
        try:
            with open(key, "rb") as fh:
                return pickle.load(fh), True
        except Exception:
            pass
    model = text_parse_file(path, rel)
    if key is not None:
        try:
            key.parent.mkdir(parents=True, exist_ok=True)
            tmp = key.with_name(f"{key.name}.tmp.{os.getpid()}")
            with open(tmp, "wb") as fh:
                pickle.dump(model, fh)
            os.replace(tmp, key)
        except Exception:
            pass
    return model, False


def parse_files_text(files, root, jobs, cache_dir, flag_salt=""):
    """Parses `files` with the text frontend, fanning out across processes
    when jobs > 1 and reusing cached TU models keyed by content hash (plus
    the CLI flag salt — see _parse_one). Returns (models, rels,
    cache_hits) with models in input order."""
    tool_hash = _tool_hash() if cache_dir else ""
    payloads = []
    rels = []
    for f in files:
        rel = f.relative_to(root).as_posix() if f.is_relative_to(root) \
            else f.as_posix()
        rels.append(rel)
        payloads.append((str(f), rel, str(cache_dir) if cache_dir else "",
                         tool_hash, flag_salt))
    if jobs > 1 and len(payloads) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_parse_one, payloads, chunksize=4))
    else:
        results = [_parse_one(p) for p in payloads]
    models = [m for m, _ in results]
    hits = sum(1 for _, hit in results if hit)
    return models, rels, hits


def load_compdb(path: Path):
    db = json.loads(path.read_text(encoding="utf-8"))
    files = []
    for entry in db:
        f = Path(entry["file"])
        if not f.is_absolute():
            f = Path(entry["directory"]) / f
        files.append(f)
    return files


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--compdb", type=Path,
                        help="compile_commands.json exported by CMake")
    parser.add_argument("--files", nargs="*", type=Path,
                        help="explicit file list (fixture/test mode)")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: this script's repo)")
    parser.add_argument("--json", type=Path, help="write JSON report here")
    parser.add_argument("--hot-scope", default=",".join(DEFAULT_HOT_SCOPE),
                        help="comma-separated path prefixes hot-alloc "
                             "traversal may descend into ('*' = everywhere)")
    parser.add_argument("--no-ratchet", action="store_true",
                        help="skip the suppression-count baseline check")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite tools/sa_baseline.json from this run")
    parser.add_argument("--rules", default=",".join(RULES),
                        help="comma-separated rules to enable")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel parse workers; 0 = one per core")
    parser.add_argument("--cache-dir", type=Path,
                        help="cache parsed TU models here, keyed by "
                             "tool+file content hash")
    parser.add_argument("--hot-cost-json", type=Path,
                        help="write the ranked hot-path cost report here")
    parser.add_argument("--lifetime-json", type=Path,
                        help="write the lifetime escape ledger here "
                             "(every site, suppressed or not)")
    parser.add_argument("--pdes-json", type=Path,
                        help="write the PDES lookahead table here: every "
                             "scheduling site classified local/remote/raw "
                             "plus cross-domain edge classes with their "
                             "proven minimum delay bounds")
    args = parser.parse_args()

    root = args.root.resolve()
    if args.files:
        files = [f.resolve() for f in args.files]
        kind_paths: tuple = ()
        factory_files: tuple = ()  # fixtures: every packet alloc flagged
        lookahead_files: tuple = ()  # fixtures: every construction flagged
        hot_scope = None if args.hot_scope == "*" else tuple(
            p for p in args.hot_scope.split(",") if p)
        if args.hot_scope == ",".join(DEFAULT_HOT_SCOPE):
            hot_scope = None  # fixture mode: traverse everywhere
    elif args.compdb:
        cpps = load_compdb(args.compdb)
        src = root / "src"
        files = sorted({f for f in cpps
                        if f.is_relative_to(src)} |
                       set(src.rglob("*.h")))
        kind_paths = KIND_ENUM_PATHS
        factory_files = SANCTIONED_FACTORY_FILES
        lookahead_files = PDES_LOOKAHEAD_FILES
        hot_scope = tuple(p for p in args.hot_scope.split(",") if p)
    else:
        print("dcpim_sa: pass --compdb or --files", file=sys.stderr)
        return 2

    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    flag_salt = f"rules={args.rules};hot_scope={args.hot_scope}"
    models, rels, cache_hits = parse_files_text(
        files, root, jobs, args.cache_dir, flag_salt)
    files_text = {rel: f.read_text(encoding="utf-8").splitlines()
                  for f, rel in zip(files, rels)}

    enabled = set(args.rules.split(","))
    analyzer = Analyzer(models, files_text, hot_scope, kind_paths,
                        factory_files, lookahead_files)
    findings = [f for f in analyzer.run() if f.rule in enabled]

    sup_counts: dict[str, int] = {}
    for s in analyzer.suppressions:
        sup_counts[s.rule] = sup_counts.get(s.rule, 0) + 1

    ratchet_failures = []
    baseline_path = Path(__file__).resolve().parent / "sa_baseline.json"
    if args.write_baseline:
        baseline_path.write_text(
            json.dumps(sup_counts, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    elif not args.no_ratchet and baseline_path.exists():
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        for rule, count in sorted(sup_counts.items()):
            allowed = baseline.get(rule, 0)
            if count > allowed:
                ratchet_failures.append(
                    f"{rule}: {count} suppressions > baseline {allowed} — "
                    f"fix the new escape or consciously raise "
                    f"tools/sa_baseline.json")
            elif count < allowed:
                print(f"dcpim_sa: ratchet can tighten — {rule} has {count} "
                      f"suppressions, baseline allows {allowed} "
                      f"(tools/dcpim_sa.py --write-baseline)")

    if args.hot_cost_json:
        sites = sorted(
            analyzer.hot_cost_sites,
            key=lambda s: (-s["weight"], s["category"], s["file"],
                           s["line"]))
        for rank, s in enumerate(sites, 1):
            s["rank"] = rank
        by_category: dict[str, int] = {}
        for s in sites:
            by_category[s["category"]] = by_category.get(
                s["category"], 0) + 1
        args.hot_cost_json.parent.mkdir(parents=True, exist_ok=True)
        args.hot_cost_json.write_text(
            json.dumps({
                "weights": HOT_COST_WEIGHTS,
                "total_sites": len(sites),
                "by_category": by_category,
                "sites": sites,
            }, indent=2) + "\n", encoding="utf-8")

    if args.lifetime_json:
        sites = sorted(
            analyzer.lifetime_sites,
            key=lambda s: (s["class"], s["file"], s["line"]))
        by_class: dict[str, int] = {}
        for s in sites:
            by_class[s["class"]] = by_class.get(s["class"], 0) + 1
        args.lifetime_json.parent.mkdir(parents=True, exist_ok=True)
        args.lifetime_json.write_text(
            json.dumps({
                "total_sites": len(sites),
                "by_class": by_class,
                "sites": sites,
            }, indent=2) + "\n", encoding="utf-8")

    if args.pdes_json:
        sites = sorted(
            analyzer.pdes_sites,
            key=lambda s: (s["kind"], s["file"], s["line"]))
        by_kind: dict[str, int] = {}
        for s in sites:
            by_kind[s["kind"]] = by_kind.get(s["kind"], 0) + 1
        # Cross-domain edge classes: every schedule_remote site, grouped
        # by (scheduling function -> conduit). The proven minimum bound is
        # the static floor — Lookahead's constructor rejects zero and Time
        # is integer picoseconds, so every edge is >= 1 ps; the actual
        # per-edge bound at run time is the link's configured propagation
        # delay (the topology-sanity ctest pins it strictly positive on
        # every inter-host link in the campaign corpus).
        edges: dict[str, dict] = {}
        for s in sites:
            if s["kind"] != "remote" or s["shim"]:
                continue
            conduits = s["conduits"] or ["(opaque callback)"]
            for c in conduits:
                ec = f"{s['function']}->{c}"
                e = edges.setdefault(ec, {
                    "edge_class": ec,
                    "from_domain": s["domain"],
                    "conduit": c,
                    "min_delay_ps": PDES_MIN_LOOKAHEAD_PS,
                    "lookahead_expr": s["delay_expr"],
                    "sites": [],
                })
                e["sites"].append({"file": s["file"], "line": s["line"]})
        ranked = sorted(edges.values(),
                        key=lambda e: (-len(e["sites"]), e["edge_class"]))
        for rank, e in enumerate(ranked, 1):
            e["rank"] = rank
        args.pdes_json.parent.mkdir(parents=True, exist_ok=True)
        args.pdes_json.write_text(
            json.dumps({
                "min_lookahead_ps": PDES_MIN_LOOKAHEAD_PS,
                "provenance": (
                    "sim::Lookahead rejects non-positive bounds at "
                    "construction and may only be built at the link seam "
                    "(Port::link_lookahead), so every cross-domain edge "
                    "bound is a link propagation delay: integer "
                    "picoseconds, statically >= 1 ps"),
                "total_sites": len(sites),
                "by_kind": by_kind,
                "edges": ranked,
                "sites": sites,
            }, indent=2) + "\n", encoding="utf-8")

    report = {
        "files": len(files),
        "functions": sum(len(m.functions) for m in models),
        "cache_hits": cache_hits,
        "rules": sorted(enabled & set(RULES)),
        "findings": [f.to_json() for f in findings],
        "suppressions": sup_counts,
        "ratchet_failures": ratchet_failures,
        "clean": not findings and not ratchet_failures,
    }
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(report, indent=2) + "\n",
                             encoding="utf-8")

    for f in findings:
        print(f"{f.file}:{f.line}: [{f.rule}] {f.message}")
    for r in ratchet_failures:
        print(f"ratchet: {r}")
    by_rule: dict[str, int] = {}
    for f in findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    detail = ", ".join(f"{r}={n}" for r, n in sorted(by_rule.items())) \
        or "clean"
    print(f"dcpim_sa: {len(files)} files, "
          f"{report['functions']} functions, {len(findings)} finding(s) "
          f"({detail}), suppressions "
          f"{json.dumps(sup_counts, sort_keys=True)}", file=sys.stderr)
    return 1 if findings or ratchet_failures else 0


if __name__ == "__main__":
    sys.exit(main())
