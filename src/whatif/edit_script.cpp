#include "whatif/edit_script.hpp"

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/check.hpp"

namespace dagt::whatif {

namespace {

// dagt-analyze reads the command names from this initializer (the first
// string of each entry) and requires each one in docs/whatif.md.
const WhatifCommand kWhatifCommands[] = {
    {"resize", "resize <cell> up|down",
     "swap the cell to the next larger/smaller drive of the same function"},
    {"move", "move <cell> <x> <y>",
     "move the cell to a point inside the die (boundary included); touched "
     "nets get re-estimated parasitics"},
    {"buffer", "buffer <net>",
     "split a high-fanout net behind a new buffer (structural edit)"},
    {"query", "query <endpoint>|all",
     "predicted sign-off arrival (ps) of one endpoint, or the worst over "
     "all endpoints"},
    {"sync", "sync",
     "push pending edits into the serving stack now (query does this "
     "implicitly)"},
    {"commit", "commit", "make the current edited state the new baseline"},
    {"revert", "revert", "drop all edits since the last commit"},
    {"stats", "stats",
     "session metrics: edit/repredict counters, incremental-STA stats, "
     "serve counters"},
    {"help", "help", "list the commands"},
    {"quit", "quit", "end the session"},
};

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

bool parseInt(const std::string& token, std::int64_t& out) {
  std::istringstream in(token);
  in >> out;
  return !in.fail() && in.eof();
}

bool parseFloat(const std::string& token, float& out) {
  std::istringstream in(token);
  in >> out;
  return !in.fail() && in.eof();
}

CommandOutcome fail(std::string message) {
  CommandOutcome outcome;
  outcome.ok = false;
  outcome.message = std::move(message);
  return outcome;
}

CommandOutcome usageOf(const char* name) {
  for (const WhatifCommand& cmd : kWhatifCommands) {
    if (name == std::string(cmd.name)) {
      return fail(std::string("usage: ") + cmd.usage);
    }
  }
  return fail("unknown command");
}

CommandOutcome dispatch(WhatIfSession& session,
                        const std::vector<std::string>& tokens) {
  const std::string& cmd = tokens[0];
  CommandOutcome outcome;

  if (cmd == "resize") {
    if (tokens.size() != 3 || (tokens[2] != "up" && tokens[2] != "down")) {
      return usageOf("resize");
    }
    std::int64_t cell = 0;
    if (!parseInt(tokens[1], cell)) return usageOf("resize");
    if (!session.resizeCell(static_cast<netlist::CellId>(cell),
                            tokens[2] == "up")) {
      return fail("cell " + tokens[1] + " has no " + tokens[2] +
                  "-size variant");
    }
    outcome.message = "resized cell " + tokens[1] + " " + tokens[2];
  } else if (cmd == "move") {
    float x = 0.0f;
    float y = 0.0f;
    std::int64_t cell = 0;
    if (tokens.size() != 4 || !parseInt(tokens[1], cell) ||
        !parseFloat(tokens[2], x) || !parseFloat(tokens[3], y)) {
      return usageOf("move");
    }
    session.moveCell(static_cast<netlist::CellId>(cell), Point{x, y});
    outcome.message = "moved cell " + tokens[1];
  } else if (cmd == "buffer") {
    std::int64_t net = 0;
    if (tokens.size() != 2 || !parseInt(tokens[1], net)) {
      return usageOf("buffer");
    }
    const sta::BufferInsertion r =
        session.insertBuffer(static_cast<netlist::NetId>(net));
    if (!r.inserted) {
      return fail("net " + tokens[1] +
                  " not buffered (fanout too small or no buffer cells)");
    }
    outcome.message = "buffered net " + tokens[1] + " (cell " +
                      std::to_string(r.buffer) + ", " +
                      std::to_string(r.movedSinks) + " sinks moved)";
  } else if (cmd == "query") {
    if (tokens.size() != 2) return usageOf("query");
    std::ostringstream msg;
    msg.precision(6);
    if (tokens[1] == "all") {
      const std::vector<float> all = session.predictAll();
      const auto worst = std::max_element(all.begin(), all.end());
      msg << all.size() << " endpoints, worst predicted arrival ";
      if (worst != all.end()) {
        msg << *worst << " ps at endpoint " << (worst - all.begin());
      } else {
        msg << "n/a";
      }
    } else {
      std::int64_t endpoint = 0;
      if (!parseInt(tokens[1], endpoint)) return usageOf("query");
      if (endpoint < 0 || endpoint >= session.numEndpoints()) {
        return fail("endpoint " + tokens[1] + " out of range (design has " +
                    std::to_string(session.numEndpoints()) + ")");
      }
      const float ps = session.predict({endpoint}).front();
      msg << "endpoint " << endpoint << ": " << ps << " ps";
    }
    outcome.message = msg.str();
  } else if (cmd == "sync") {
    if (tokens.size() != 1) return usageOf("sync");
    session.sync();
    const auto& r = session.lastSync();
    std::ostringstream msg;
    msg << "synced: " << r.dirtyEndpoints.size() << " dirty endpoints, "
        << r.imagesReused << " images reused, " << r.imagesRebuilt
        << " rebuilt";
    outcome.message = msg.str();
  } else if (cmd == "commit") {
    if (tokens.size() != 1) return usageOf("commit");
    session.commit();
    outcome.message = "committed";
  } else if (cmd == "revert") {
    if (tokens.size() != 1) return usageOf("revert");
    session.revert();
    outcome.message = "reverted to last commit";
  } else if (cmd == "stats") {
    if (tokens.size() != 1) return usageOf("stats");
    outcome.message = session.metrics().renderTable();
  } else if (cmd == "help") {
    std::ostringstream msg;
    for (const WhatifCommand& c : kWhatifCommands) {
      msg << "  " << c.usage << "\n      " << c.help << "\n";
    }
    outcome.message = msg.str();
  } else if (cmd == "quit") {
    outcome.quit = true;
    outcome.message = "bye";
  } else {
    return fail("unknown command '" + cmd + "' (try help)");
  }
  return outcome;
}

}  // namespace

const std::vector<WhatifCommand>& whatifCommands() {
  static const std::vector<WhatifCommand> commands(
      std::begin(kWhatifCommands), std::end(kWhatifCommands));
  return commands;
}

CommandOutcome runCommand(WhatIfSession& session, const std::string& line) {
  const auto hash = line.find('#');
  const std::string body = hash == std::string::npos ? line
                                                     : line.substr(0, hash);
  const std::vector<std::string> tokens = tokenize(body);
  if (tokens.empty()) return CommandOutcome{};
  try {
    return dispatch(session, tokens);
  } catch (const CheckError& e) {
    // Bad operands (out-of-range ids and the like) are session input
    // errors, not crashes — surface them like any other failed command.
    return fail(e.what());
  }
}

int runScript(WhatIfSession& session, std::istream& in, std::ostream& out,
              const bool echo) {
  int failures = 0;
  std::string line;
  while (std::getline(in, line)) {
    const CommandOutcome outcome = runCommand(session, line);
    if (!outcome.ok) ++failures;
    if (!outcome.message.empty()) {
      if (echo) out << "> " << line << '\n';
      out << (outcome.ok ? "" : "error: ") << outcome.message << '\n';
    }
    if (outcome.quit) break;
  }
  return failures;
}

void runRepl(WhatIfSession& session, std::istream& in, std::ostream& out) {
  std::string line;
  out << "what-if session on '" << session.key() << "' ("
      << session.numEndpoints() << " endpoints). Type help for commands.\n";
  while (true) {
    out << "whatif> " << std::flush;
    if (!std::getline(in, line)) break;
    const CommandOutcome outcome = runCommand(session, line);
    if (!outcome.message.empty()) {
      out << (outcome.ok ? "" : "error: ") << outcome.message << '\n';
    }
    if (outcome.quit) break;
  }
}

}  // namespace dagt::whatif
