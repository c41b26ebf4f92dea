// Fixture (never compiled): analyzed as src/nn/fixture.hpp.
// No #pragma once anywhere — the pragma-once rule reports at line 1.
// The string below must not fool the lexer into seeing a directive:
namespace dagt {
inline const char* decoy() { return "#pragma once"; }
}  // namespace dagt
