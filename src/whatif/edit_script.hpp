#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "whatif/whatif_session.hpp"

namespace dagt::whatif {

/// One command of the what-if language (shared by edit files and the
/// REPL). The full table lives in edit_script.cpp; docs/whatif.md must
/// document every command name (enforced by dagt-analyze's command-drift
/// row).
struct WhatifCommand {
  const char* name;
  const char* usage;
  const char* help;
};

/// All commands, in help order.
const std::vector<WhatifCommand>& whatifCommands();

struct CommandOutcome {
  bool ok = true;
  bool quit = false;    // a `quit` command was executed
  std::string message;  // human-readable result (may be multi-line)
};

/// Parse and execute one command line against the session. Blank lines and
/// `#` comments succeed silently. Unknown commands and malformed operands
/// fail with ok = false and an explanatory message; edit/query errors from
/// the session are reported the same way rather than aborting.
CommandOutcome runCommand(WhatIfSession& session, const std::string& line);

/// Run a whole edit script (one command per line). Each command's message
/// goes to `out`, prefixed with the command itself when `echo` is set.
/// Stops early on `quit`. Returns the number of failed commands.
int runScript(WhatIfSession& session, std::istream& in, std::ostream& out,
              bool echo);

/// Interactive loop: prompt on `out`, commands from `in`, until quit/EOF.
void runRepl(WhatIfSession& session, std::istream& in, std::ostream& out);

}  // namespace dagt::whatif
