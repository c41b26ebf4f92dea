// Fixture (never compiled): analyzed as src/serve/fixture.cpp.
// Exactly one trace-macro-only violation survives; one is suppressed, and
// macro sites plus unrelated emit identifiers must not fire.
#include "obs/trace.hpp"

namespace dagt::serve {

void handRolledSpan() {
  obs::TraceEvent event;
  event.name = "serve/hand_rolled";
  obs::TraceRegistry::global().emit(event);  // bypasses the compile-out gate
}

void suppressedSpan(obs::TraceRegistry& registry, obs::TraceEvent event) {
  registry.emit(event);  // dagt-analyze: allow(trace-macro-only) -- fixture
}

void macroSitesAreFine() {
  DAGT_TRACE_SCOPE("serve/fixture");
  DAGT_TRACE_INSTANT("serve/fixture_instant", "n", 1);
}

// An unrelated emit identifier (no member access) stays clean:
void emitDiagnostics();
void caller() { emitDiagnostics(); }

// Prose mentioning registry.emit(...) in a comment must not fire either.

}  // namespace dagt::serve
