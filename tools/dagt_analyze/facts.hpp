#pragma once

// dagt-analyze phase 1: per-translation-unit fact extraction.
//
// Built on the lexer-lite (lexer.hpp) plus a lightweight
// declaration/scope parser — no libclang. The parser tracks
// namespace / class / function / block nesting by brace depth, detects
// function heads (including Class::method qualifiers, constructors with
// init lists, and trailing modifiers), and threads a held-lock set through
// each function body: every std::lock_guard / unique_lock / scoped_lock /
// shared_lock construction records the mutex expression it names together
// with the guards already active, and guard-variable .unlock()/.lock()
// calls deactivate/reactivate their entry so manual unlock windows (e.g.
// PredictionEngine::workerLoop around serveBatch) do not fabricate edges.
//
// The extracted facts are deliberately flat records — phase 2
// (passes.cpp) merges the per-TU databases and resolves mutex identities
// across translation units. serializeFacts defines a canonical text form
// that the golden test pins byte for byte.

#include <string>
#include <vector>

#include "lexer.hpp"

namespace dagt::analyze {

/// `std::mutex member_;` declared at class scope.
struct MutexMember {
  std::string className;
  std::string member;
  int line = 0;
};

/// A field covered by a `// GUARDED_BY(mutex)` comment inside a class.
struct GuardedField {
  std::string className;
  std::string field;
  std::string mutexName;
  int line = 0;
};

/// A function definition (free or member; className empty for free).
struct FunctionDef {
  std::string className;
  std::string name;
  int line = 0;
};

/// One lock acquisition: guard construction or guard.lock() re-lock.
/// `held` lists the mutex expressions of guards already active in the
/// same function at this point (textual, unresolved).
struct LockAcquire {
  std::string function;   // enclosing function name
  std::string className;  // enclosing/qualifying class ("" for free)
  std::string mutexExpr;  // e.g. "mutex_", "buffer->mutex_"
  std::vector<std::string> held;
  int line = 0;
};

/// A call site inside a function body. memberCall marks x.f()/x->f()
/// (receiver type unknown); qualifier carries A from A::f().
struct CallSite {
  std::string function;
  std::string className;
  std::string callee;     // last name only
  std::string qualifier;  // "" or the explicit A in A::f()
  bool memberCall = false;
  std::vector<std::string> held;
  int line = 0;
};

/// A bare this-member mutation (field_ = / .push_back / ++ / ...) made
/// while at least one lock is held. Only unqualified accesses are
/// recorded — `other->field_` cannot be attributed statically.
struct MutationSite {
  std::string function;
  std::string className;
  std::string field;
  std::vector<std::string> held;
  int line = 0;
};

/// Buffer-pool contract surface: kind is one of
///   acquire      — pool-ish receiver .acquire(...)
///   release      — pool-ish receiver .release(...)
///   park         — parkGlobal(...)
///   buffer-new   — direct Buffer construction (new Buffer / make_unique)
///   make-out     — makeOut/makeView (the sanctioned wrappers)
struct PoolEvent {
  std::string kind;
  std::string function;
  std::string receiver;  // textual receiver chain ("" when none)
  std::string arg;       // first argument, textual ("" when none)
  int line = 0;
};

/// DAGT_TRACE_SCOPE / DAGT_TRACE_INSTANT with a literal name.
struct SpanUse {
  std::string kind;  // "scope" | "instant"
  std::string name;
  int line = 0;
};

/// A knob read: any call whose first argument is a "DAGT_[A-Z0-9_]+"
/// literal (getenv, envOr, or a wrapper such as envFloat).
struct EnvRead {
  std::string via;  // the called helper
  std::string name;
  int line = 0;
};

/// A KernelTable built by a tier TU. seedSource empty means zero-seeded
/// (`KernelTable x{};` — must assign every member); otherwise the callee
/// it copies from (`KernelTable x = avx2Table();`).
struct TierTable {
  std::string var;
  std::string seedSource;
  std::vector<std::string> assigned;
  int line = 0;
};

/// `// dagt-analyze: <kind>(<value>)` annotation. Kinds:
///   lock-order  value "A::m<B::n" — declared acquisition order
///   mutex       value "Class::member" — owner of an ambiguous expression
///   allow       value "<pass-id>" — suppress a finding on this/next line
struct Annotation {
  std::string kind;
  std::string value;
  int line = 0;
};

struct TuFacts {
  std::string path;
  std::vector<MutexMember> mutexes;
  std::vector<GuardedField> guarded;
  std::vector<FunctionDef> functions;
  std::vector<LockAcquire> acquires;
  std::vector<CallSite> calls;
  std::vector<MutationSite> mutations;
  std::vector<PoolEvent> pool;
  std::vector<SpanUse> spans;
  std::vector<EnvRead> envs;
  std::vector<std::string> kernelMembers;  // struct KernelTable members
  std::vector<TierTable> tiers;
  std::vector<Annotation> annotations;
};

TuFacts extractFacts(const std::string& path, const LexedFile& lexed);

/// Canonical tab-separated text form (one record per line, "-" for empty
/// fields, held sets comma-joined).
std::string serializeFacts(const TuFacts& facts);

}  // namespace dagt::analyze
