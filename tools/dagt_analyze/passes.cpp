// Cross-TU passes: phase 2 over the merged fact database (lock order,
// pooled-buffer lifetime, GUARDED_BY discipline, kernel-table slots).

#include <algorithm>
#include <map>
#include <set>

#include "rules.hpp"

namespace dagt::analyze {

namespace {

/// Merged cross-TU view used by every pass.
struct Database {
  const std::vector<TuFacts>* tus = nullptr;
  // mutex member name -> declaring classes
  std::map<std::string, std::set<std::string>> mutexClasses;
  // "Class::field" annotated GUARDED_BY
  std::set<std::string> guardedFields;
  // function last name -> qualified names ("Class::name" or "name")
  std::map<std::string, std::set<std::string>> functionsByName;
  // path -> line -> mutex owner hints ("Class::member")
  std::map<std::string, std::map<int, std::string>> mutexHints;
  // declared lock-order edges "A::m" < "B::n"
  std::set<std::pair<std::string, std::string>> declaredOrder;
};

std::string qualify(const std::string& cls, const std::string& name) {
  return cls.empty() ? name : cls + "::" + name;
}

Database buildDatabase(const std::vector<TuFacts>& tus) {
  Database db;
  db.tus = &tus;
  for (const auto& tu : tus) {
    for (const auto& m : tu.mutexes) {
      db.mutexClasses[m.member].insert(m.className);
    }
    for (const auto& g : tu.guarded) {
      db.guardedFields.insert(qualify(g.className, g.field));
    }
    for (const auto& f : tu.functions) {
      db.functionsByName[f.name].insert(qualify(f.className, f.name));
    }
    for (const auto& a : tu.annotations) {
      if (a.kind == "mutex") {
        db.mutexHints[tu.path][a.line] = a.value;
      } else if (a.kind == "lock-order") {
        const std::size_t lt = a.value.find('<');
        if (lt != std::string::npos) {
          db.declaredOrder.emplace(a.value.substr(0, lt),
                                   a.value.substr(lt + 1));
        }
      }
    }
  }
  return db;
}

/// Resolve a textual mutex expression to a stable identity.
struct Resolution {
  std::string id;         // "Class::member" or "<path>::member" for locals
  bool resolved = false;  // false => ambiguous, needs an annotation
};

Resolution resolveMutex(const Database& db, const std::string& tuPath,
                        const std::string& enclosingClass, std::string expr,
                        int line) {
  Resolution r;
  // An explicit owner hint on the acquisition line (or the line above)
  // wins outright.
  const auto hintsIt = db.mutexHints.find(tuPath);
  if (hintsIt != db.mutexHints.end()) {
    for (int probe : {line, line - 1}) {
      const auto at = hintsIt->second.find(probe);
      if (at != hintsIt->second.end()) {
        r.id = at->second;
        r.resolved = true;
        return r;
      }
    }
  }
  if (startsWith(expr, "this->")) expr = expr.substr(6);
  if (expr.find('(') != std::string::npos) {
    return r;  // call result — cannot resolve statically
  }
  std::string member = expr;
  bool qualifiedAccess = false;
  for (const char* sep : {"->", ".", "::"}) {
    const std::size_t at = expr.rfind(sep);
    if (at != std::string::npos) {
      const std::string tail = expr.substr(at + std::string(sep).size());
      if (!qualifiedAccess || tail.size() < member.size()) member = tail;
      qualifiedAccess = true;
    }
  }
  const auto declarers = db.mutexClasses.find(member);
  if (!qualifiedAccess) {
    // Bare name: the enclosing class wins when it declares the member.
    if (declarers != db.mutexClasses.end()) {
      if (!enclosingClass.empty() &&
          declarers->second.count(enclosingClass) != 0) {
        r.id = enclosingClass + "::" + member;
        r.resolved = true;
        return r;
      }
      if (declarers->second.size() == 1) {
        r.id = *declarers->second.begin() + "::" + member;
        r.resolved = true;
        return r;
      }
      return r;  // several candidate owners — ambiguous
    }
    // Not a known class member: a function-local or file-static mutex.
    r.id = tuPath + "::" + member;
    r.resolved = true;
    return r;
  }
  // Member access through an object: unique declaring class or bust.
  if (declarers != db.mutexClasses.end() && declarers->second.size() == 1) {
    r.id = *declarers->second.begin() + "::" + member;
    r.resolved = true;
    return r;
  }
  return r;
}

// -- lock-order --------------------------------------------------------------

struct Edge {
  std::string from;
  std::string to;
  std::string path;  // witness site
  int line = 0;
};

/// The qualified function a call resolves to: the explicit A::f when A::f
/// is defined, else the only definition named f; "" when unknown.
std::string calleeOf(const Database& db, const CallSite& c) {
  const auto it = db.functionsByName.find(c.callee);
  if (it == db.functionsByName.end()) return "";
  if (!c.qualifier.empty()) {
    const std::string qualified = c.qualifier + "::" + c.callee;
    return it->second.count(qualified) != 0 ? qualified : "";
  }
  return it->second.size() == 1 ? *it->second.begin() : "";
}

void lockOrderPasses(const Database& db, std::vector<Finding>& out) {
  std::vector<Edge> edges;
  // function qual name -> directly acquired (resolved) mutexes
  std::map<std::string, std::set<std::string>> direct;
  // function qual name -> unique known callees
  std::map<std::string, std::set<std::string>> callees;

  for (const auto& tu : *db.tus) {
    for (const auto& a : tu.acquires) {
      const Resolution target =
          resolveMutex(db, tu.path, a.className, a.mutexExpr, a.line);
      if (!target.resolved) {
        out.push_back(
            {"lock-order-ambiguous", tu.path, a.line,
             "cannot resolve mutex expression '" + a.mutexExpr +
                 "' to a unique owner; add // dagt-analyze: mutex(" +
                 "Class::member) on this line"});
      } else {
        direct[qualify(a.className, a.function)].insert(target.id);
        for (const auto& h : a.held) {
          const Resolution held =
              resolveMutex(db, tu.path, a.className, h, a.line);
          if (held.resolved && held.id != target.id) {
            edges.push_back({held.id, target.id, tu.path, a.line});
          }
        }
      }
    }
    for (const auto& c : tu.calls) {
      const std::string calleeQual = calleeOf(db, c);
      if (calleeQual.empty()) continue;
      callees[qualify(c.className, c.function)].insert(calleeQual);
    }
  }

  // May-acquire fixpoint over the unique-callee graph.
  std::map<std::string, std::set<std::string>> may = direct;
  bool changed = true;
  int rounds = 0;
  while (changed && rounds < 64) {
    changed = false;
    ++rounds;
    for (const auto& [fn, cs] : callees) {
      auto& mine = may[fn];
      const std::size_t before = mine.size();
      for (const auto& callee : cs) {
        const auto it = may.find(callee);
        if (it == may.end()) continue;
        mine.insert(it->second.begin(), it->second.end());
      }
      if (mine.size() != before) changed = true;
    }
  }

  // Calls made while holding: edge held -> everything the callee may take.
  for (const auto& tu : *db.tus) {
    for (const auto& c : tu.calls) {
      if (c.held.empty()) continue;
      const std::string calleeQual = calleeOf(db, c);
      if (calleeQual.empty()) continue;
      const auto acquired = may.find(calleeQual);
      if (acquired == may.end()) continue;
      for (const auto& h : c.held) {
        const Resolution held =
            resolveMutex(db, tu.path, c.className, h, c.line);
        if (!held.resolved) continue;
        for (const auto& m : acquired->second) {
          if (m != held.id) edges.push_back({held.id, m, tu.path, c.line});
        }
      }
    }
  }

  // Declared-order violations: edge X->Y while the annotation says Y<X.
  for (const auto& e : edges) {
    if (db.declaredOrder.count({e.to, e.from}) != 0) {
      out.push_back({"lock-order-violation", e.path, e.line,
                     "acquires '" + e.to + "' while holding '" + e.from +
                         "', contradicting declared lock-order(" + e.to +
                         "<" + e.from + ")"});
    }
  }

  // Cycle detection: a node sits on a cycle iff it reaches itself, and its
  // strongly-connected component is reach(node) ∩ coreach(node). Each
  // component is reported once, at its first edge by (path, line).
  std::map<std::string, std::set<std::string>> adj;
  std::map<std::string, std::set<std::string>> radj;
  for (const auto& e : edges) {
    adj[e.from].insert(e.to);
    radj[e.to].insert(e.from);
  }
  const auto reachable = [](const std::string& start,
                            const std::map<std::string, std::set<std::string>>&
                                graph) {
    std::set<std::string> seen;
    std::vector<std::string> stack = {start};
    while (!stack.empty()) {
      const auto it = graph.find(stack.back());
      stack.pop_back();
      if (it == graph.end()) continue;
      for (const auto& next : it->second) {
        if (seen.insert(next).second) stack.push_back(next);
      }
    }
    return seen;
  };
  std::set<std::string> reported;
  for (const auto& [node, successors] : adj) {
    if (reported.count(node) != 0) continue;
    const std::set<std::string> fwd = reachable(node, adj);
    if (fwd.count(node) == 0) continue;  // not on a cycle itself
    const std::set<std::string> back = reachable(node, radj);
    std::set<std::string> component;
    std::string cycleDesc;
    for (const auto& n : fwd) {
      if (back.count(n) == 0) continue;
      component.insert(n);
      reported.insert(n);
      if (!cycleDesc.empty()) cycleDesc += " <-> ";
      cycleDesc += n;
    }
    const Edge* witness = nullptr;
    for (const auto& e : edges) {
      if (component.count(e.from) == 0 || component.count(e.to) == 0) continue;
      if (witness == nullptr || e.path < witness->path ||
          (e.path == witness->path && e.line < witness->line)) {
        witness = &e;
      }
    }
    out.push_back({"lock-order-cycle", witness->path, witness->line,
                   "potential deadlock: acquisition-order cycle between " +
                       cycleDesc +
                       "; break the cycle or declare the intended order "
                       "with // dagt-analyze: lock-order(A::m<B::n)"});
  }
}

// -- pooled-buffer lifetime --------------------------------------------------

bool isPoolHome(const std::string& path) {
  return startsWith(path, "src/tensor/");
}

bool isPoolImpl(const std::string& path) {
  return path == "src/tensor/storage.cpp" || path == "src/tensor/storage.hpp";
}

void poolPasses(const Database& db, std::vector<Finding>& out) {
  for (const auto& tu : *db.tus) {
    // Tests call the pool directly on purpose.
    if (startsWith(tu.path, "tests/")) continue;
    // (function, arg) -> release count, for double-release.
    std::map<std::pair<std::string, std::string>, std::pair<int, int>>
        releases;  // -> {count, last line}
    for (const auto& p : tu.pool) {
      if (p.kind == "acquire" && !isPoolHome(tu.path)) {
        out.push_back({"pool-raw-acquire", tu.path, p.line,
                       "raw BufferPool acquire ('" + p.receiver +
                           ".acquire(...)') outside src/tensor/; route "
                           "allocations through makeOut/makeView or a "
                           "Workspace so the release contract stays with "
                           "the pool"});
      }
      if ((p.kind == "release" || p.kind == "park") && !isPoolImpl(tu.path)) {
        out.push_back({"pool-manual-release", tu.path, p.line,
                       "manual pool " +
                           std::string(p.kind == "park" ? "parkGlobal"
                                                        : "release") +
                           " outside the pool implementation; ownership "
                           "must flow through the shared_ptr deleter "
                           "(single-release contract)"});
      }
      if (p.kind == "buffer-new" && !isPoolImpl(tu.path)) {
        out.push_back({"pool-foreign-buffer", tu.path, p.line,
                       "direct Buffer construction outside the pool; "
                           "foreign buffers trip the parked-bit contract "
                           "on release — acquire from BufferPool instead"});
      }
      if ((p.kind == "release" || p.kind == "park") && !p.arg.empty()) {
        auto& slot = releases[{p.function, p.arg}];
        slot.first += 1;
        slot.second = p.line;
      }
    }
    for (const auto& [key, countLine] : releases) {
      if (countLine.first < 2) continue;
      out.push_back({"pool-double-release", tu.path, countLine.second,
                     "function '" + key.first + "' releases '" + key.second +
                         "' " + std::to_string(countLine.first) +
                         " times; the second release hits the parked-bit "
                         "double-release contract at runtime"});
    }
  }
}

// -- GUARDED_BY discipline ---------------------------------------------------

/// Each mutex member guards at least one annotated field, each annotation
/// names a mutex member of its class, and each annotated mutex is locked
/// somewhere (a resolved acquisition, any TU).
void guardedByPasses(const Database& db, std::vector<Finding>& out) {
  std::map<std::string, Site> annotated;  // "C::m" -> first annotation
  std::set<std::string> locked;
  for (const auto& tu : *db.tus) {
    for (const auto& g : tu.guarded) {
      const auto owners = db.mutexClasses.find(g.mutexName);
      if (owners == db.mutexClasses.end() ||
          owners->second.count(g.className) == 0) {
        out.push_back({"guarded-by-unknown", tu.path, g.line,
                       "GUARDED_BY(" + g.mutexName + ") on '" +
                           qualify(g.className, g.field) +
                           "' names no std::mutex member of " + g.className});
        continue;
      }
      annotated.emplace(qualify(g.className, g.mutexName),
                        Site{tu.path, g.line});
    }
    for (const auto& a : tu.acquires) {
      const Resolution r =
          resolveMutex(db, tu.path, a.className, a.mutexExpr, a.line);
      if (r.resolved) locked.insert(r.id);
    }
  }
  for (const auto& tu : *db.tus) {
    for (const auto& m : tu.mutexes) {
      const std::string id = qualify(m.className, m.member);
      const auto first = annotated.find(id);
      if (first == annotated.end()) {
        out.push_back({"guarded-by", tu.path, m.line,
                       "mutex '" + id +
                           "' has no field annotated // GUARDED_BY(" +
                           m.member + ")"});
      } else if (locked.count(id) == 0) {
        out.push_back({"guarded-by-unlocked", first->second.path,
                       first->second.line,
                       "mutex '" + id + "' guards fields but is never locked"});
      }
    }
  }
}

// -- guarded-by-gap ----------------------------------------------------------

void guardedByGapPass(const Database& db, std::vector<Finding>& out) {
  std::set<std::string> seen;  // "Class::field" already reported
  for (const auto& tu : *db.tus) {
    for (const auto& m : tu.mutations) {
      if (m.className.empty() || m.field.empty()) continue;
      const std::string qualified = qualify(m.className, m.field);
      if (db.guardedFields.count(qualified) != 0) continue;
      // The mutated name must not itself be a mutex member.
      const auto owners = db.mutexClasses.find(m.field);
      if (owners != db.mutexClasses.end() &&
          owners->second.count(m.className) != 0) {
        continue;
      }
      // At least one held lock must belong to the same class — that is
      // what proves the field is meant to be lock-protected.
      std::string protecting;
      for (const auto& h : m.held) {
        const Resolution r = resolveMutex(db, tu.path, m.className, h, m.line);
        if (r.resolved && startsWith(r.id, m.className + "::")) {
          protecting = r.id;
          break;
        }
      }
      if (protecting.empty()) continue;
      if (!seen.insert(qualified).second) continue;
      out.push_back({"guarded-by-gap", tu.path, m.line,
                     "field '" + qualified + "' is mutated under " +
                         protecting + " but carries no // GUARDED_BY(" +
                         protecting.substr(m.className.size() + 2) +
                         ") annotation on its declaration"});
    }
  }
}

// -- kernel-table-complete ---------------------------------------------------

void kernelTablePass(const Database& db, std::vector<Finding>& out) {
  std::vector<std::string> members;
  for (const auto& tu : *db.tus) {
    if (!tu.kernelMembers.empty()) members = tu.kernelMembers;
  }
  if (members.empty()) return;
  for (const auto& tu : *db.tus) {
    for (const auto& table : tu.tiers) {
      if (!table.seedSource.empty()) continue;  // copy-seeded tiers inherit
      const std::set<std::string> assigned(table.assigned.begin(),
                                           table.assigned.end());
      for (const auto& member : members) {
        if (assigned.count(member) != 0) continue;
        out.push_back({"kernel-table-complete", tu.path, table.line,
                       "zero-seeded tier table '" + table.var +
                           "' never assigns kernel slot '" + member +
                           "'; a compiled program lowering to it would "
                           "call a null pointer on this tier"});
      }
    }
  }
}

}  // namespace

void crossTuPasses(const std::vector<TuFacts>& tus, std::vector<Finding>& out) {
  const Database db = buildDatabase(tus);
  lockOrderPasses(db, out);
  poolPasses(db, out);
  guardedByPasses(db, out);
  guardedByGapPass(db, out);
  kernelTablePass(db, out);
}

}  // namespace dagt::analyze
