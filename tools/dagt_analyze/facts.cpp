#include "facts.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>

namespace dagt::analyze {

namespace {

bool isKeyword(const std::string& t) {
  static const std::set<std::string> kw = {
      "if",           "while",        "for",
      "switch",       "return",       "sizeof",
      "alignof",      "catch",        "throw",
      "new",          "delete",       "static_cast",
      "dynamic_cast", "reinterpret_cast", "const_cast",
      "decltype",     "noexcept",     "static_assert",
      "assert",       "defined",      "alignas",
      "typeid",       "co_await",     "co_return"};
  return kw.count(t) != 0;
}

bool isKnobName(const std::string& s) {
  return s.size() > 5 && startsWith(s, "DAGT_") &&
         s.find_first_not_of("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_") ==
             std::string::npos;
}

bool isLockType(const std::string& t) {
  return t == "lock_guard" || t == "unique_lock" || t == "scoped_lock" ||
         t == "shared_lock";
}

/// Join a token range textually: "buffer - > mutex_" -> "buffer->mutex_".
std::string joinTokens(const std::vector<Token>& toks, std::size_t begin,
                       std::size_t end) {
  std::string out;
  for (std::size_t k = begin; k < end && k < toks.size(); ++k) {
    if (toks[k].kind == TokenKind::kString) {
      out += '"';
      out += toks[k].text;
      out += '"';
    } else {
      out += toks[k].text;
    }
  }
  return out;
}

struct ScopeFrame {
  enum Kind { kNamespace, kClass, kFunction, kBlock, kOther };
  Kind kind = kBlock;
  std::string name;       // namespace/class name or function name
  std::string className;  // for kFunction: qualifying class
};

struct Guard {
  std::string var;
  std::vector<std::string> exprs;  // scoped_lock may hold several
  int depth = 0;                   // brace depth at construction
  bool active = true;
};

struct ClassRange {
  std::string name;
  int startLine = 0;
  int endLine = 0;
};

class Extractor {
 public:
  Extractor(const std::string& path, const LexedFile& lexed)
      : path_(path), lexed_(lexed), toks_(lexed.tokens) {}

  TuFacts run() {
    facts_.path = path_;
    walk();
    collectGuardedByComments();
    collectAnnotations();
    return std::move(facts_);
  }

 private:
  // -- scope queries --------------------------------------------------------

  const ScopeFrame* innermostFunction() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == ScopeFrame::kFunction) return &*it;
    }
    return nullptr;
  }

  const ScopeFrame* innermostClass() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == ScopeFrame::kClass) return &*it;
      if (it->kind == ScopeFrame::kFunction) break;  // locals hide fields
    }
    return nullptr;
  }

  bool atTypeScope() const {
    // Class or namespace scope (incl. file scope): where declarations and
    // function heads live.
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == ScopeFrame::kFunction || it->kind == ScopeFrame::kBlock ||
          it->kind == ScopeFrame::kOther) {
        return false;
      }
      return true;
    }
    return true;  // empty stack = file scope
  }

  std::vector<std::string> activeHeld() const {
    std::vector<std::string> held;
    for (const auto& g : guards_) {
      if (!g.active) continue;
      for (const auto& e : g.exprs) held.push_back(e);
    }
    return held;
  }

  // -- token skippers -------------------------------------------------------

  /// Index just past the matching closer for the opener at `i`.
  std::size_t skipBalanced(std::size_t i, const char* open,
                           const char* close) const {
    int depth = 0;
    while (i < toks_.size()) {
      if (tokenIs(toks_, i, open)) ++depth;
      if (tokenIs(toks_, i, close)) {
        --depth;
        if (depth == 0) return i + 1;
      }
      ++i;
    }
    return i;
  }

  /// Skip `<...>` template arguments starting at a `<`; bails out (returns
  /// the start) if no `>` closes on the same statement — `<` might be a
  /// comparison.
  std::size_t skipAngles(std::size_t i) const {
    int depth = 0;
    std::size_t k = i;
    while (k < toks_.size()) {
      if (tokenIs(toks_, k, "<")) ++depth;
      if (tokenIs(toks_, k, ">")) {
        --depth;
        if (depth == 0) return k + 1;
      }
      if (tokenIs(toks_, k, ";") || tokenIs(toks_, k, "{")) break;
      ++k;
    }
    return i;
  }

  // -- walk -----------------------------------------------------------------

  void walk() {
    std::size_t i = 0;
    while (i < toks_.size()) {
      const Token& t = toks_[i];
      if (tokenIs(toks_, i, "{")) {
        pushBrace();
        ++i;
        continue;
      }
      if (tokenIs(toks_, i, "}")) {
        popBrace();
        ++i;
        continue;
      }
      if (tokenIs(toks_, i, ";")) {
        // Forward declarations (`class X;`) and statements terminate any
        // pending head so a later `{` is not misclassified.
        clearPendings();
        ++i;
        continue;
      }
      if (t.kind != TokenKind::kIdent) {
        ++i;
        continue;
      }
      if (t.text == "template" && nextIs(toks_, i, "<")) {
        i = skipAngles(i + 1);
        continue;
      }
      if (t.text == "namespace") {
        i = handleNamespace(i);
        continue;
      }
      if (t.text == "enum") {
        pendingEnum_ = true;
        ++i;
        if (i < toks_.size() &&
            (tokenIs(toks_, i, "class") || tokenIs(toks_, i, "struct"))) {
          ++i;  // `enum class` — do not treat as a class head
        }
        continue;
      }
      if ((t.text == "class" || t.text == "struct" || t.text == "union") &&
          i + 1 < toks_.size() && toks_[i + 1].kind == TokenKind::kIdent) {
        pendingClass_ = toks_[i + 1].text;
        pendingLine_ = toks_[i + 1].line;
        i += 2;
        continue;
      }
      if (atTypeScope()) {
        i = handleTypeScopeIdent(i);
        continue;
      }
      i = handleFunctionScopeIdent(i);
    }
  }

  void pushBrace() {
    ScopeFrame frame;
    if (pendingFunction_) {
      frame.kind = ScopeFrame::kFunction;
      frame.name = pendingFunctionName_;
      frame.className = pendingFunctionClass_;
      facts_.functions.push_back(
          {pendingFunctionClass_, pendingFunctionName_, pendingFunctionLine_});
    } else if (!pendingClass_.empty()) {
      frame.kind = ScopeFrame::kClass;
      frame.name = pendingClass_;
      classStack_.push_back(
          {pendingClass_, pendingLine_, pendingLine_});
    } else if (pendingNamespace_) {
      frame.kind = ScopeFrame::kNamespace;
      frame.name = pendingNamespaceName_;
    } else if (pendingEnum_ || atTypeScope()) {
      frame.kind = ScopeFrame::kOther;
    } else {
      frame.kind = ScopeFrame::kBlock;
    }
    clearPendings();
    scopes_.push_back(frame);
    ++braceDepth_;
  }

  void popBrace() {
    if (!scopes_.empty()) {
      if (scopes_.back().kind == ScopeFrame::kClass && !classStack_.empty()) {
        ClassRange done = classStack_.back();
        classStack_.pop_back();
        done.endLine = currentLine_;
        classRanges_.push_back(done);
      }
      scopes_.pop_back();
    }
    if (braceDepth_ > 0) --braceDepth_;
    guards_.erase(std::remove_if(guards_.begin(), guards_.end(),
                                 [&](const Guard& g) {
                                   return g.depth > braceDepth_;
                                 }),
                  guards_.end());
    clearPendings();
  }

  void clearPendings() {
    pendingFunction_ = false;
    pendingFunctionName_.clear();
    pendingFunctionClass_.clear();
    pendingClass_.clear();
    pendingNamespace_ = false;
    pendingNamespaceName_.clear();
    pendingEnum_ = false;
  }

  std::size_t handleNamespace(std::size_t i) {
    std::size_t j = i + 1;
    std::string name;
    while (j < toks_.size() &&
           (toks_[j].kind == TokenKind::kIdent || tokenIs(toks_, j, "::"))) {
      name += toks_[j].text;
      ++j;
    }
    if (tokenIs(toks_, j, "{")) {
      pendingNamespace_ = true;
      pendingNamespaceName_ = name;
      return j;  // `{` handled by the main loop
    }
    return j;  // alias or using-directive — nothing to record
  }

  // At class/namespace scope: mutex member declarations, KernelTable
  // members, tier tables, and function heads.
  std::size_t handleTypeScopeIdent(std::size_t i) {
    currentLine_ = toks_[i].line;
    const ScopeFrame* cls = innermostClass();

    // `std :: mutex member_ ;` at class scope.
    if (cls != nullptr && seqAt(toks_, i, {"std", "::", "mutex"}) &&
        i + 4 < toks_.size() && toks_[i + 3].kind == TokenKind::kIdent &&
        tokenIs(toks_, i + 4, ";")) {
      facts_.mutexes.push_back({cls->name, toks_[i + 3].text, toks_[i + 3].line});
      return i + 5;
    }

    // Function head: IDENT `(` ... — possibly preceded by Class::.
    if (nextIs(toks_, i, "(") && !isKeyword(toks_[i].text) &&
        toks_[i].text != "operator") {
      return tryFunctionHead(i);
    }
    return i + 1;
  }

  /// Parse a candidate function head whose name token is at `i` and whose
  /// `(` is at i+1. On success sets pendingFunction_ and returns the index
  /// of the body `{`; on failure returns the index just past the params.
  std::size_t tryFunctionHead(std::size_t i) {
    std::string name = toks_[i].text;
    std::string cls;
    if (i >= 2 && tokenIs(toks_, i - 1, "::") &&
        toks_[i - 2].kind == TokenKind::kIdent) {
      cls = toks_[i - 2].text;
    } else if (i >= 1 && tokenIs(toks_, i - 1, "~")) {
      name = "~" + name;
    }
    if (cls.empty()) {
      const ScopeFrame* enclosing = innermostClass();
      if (enclosing != nullptr) cls = enclosing->name;
    }
    const int headLine = toks_[i].line;
    std::size_t j = skipBalanced(i + 1, "(", ")");

    bool inInitList = false;
    std::string prevText = ")";  // last token seen after the params
    while (j < toks_.size()) {
      if (tokenIs(toks_, j, ";")) return j + 1;  // declaration only
      if (tokenIs(toks_, j, "=")) {
        // `= default;` / `= delete;` / `= 0;` — not a body.
        while (j < toks_.size() && !tokenIs(toks_, j, ";")) ++j;
        return j + 1;
      }
      if (tokenIs(toks_, j, "(")) {
        j = skipBalanced(j, "(", ")");
        prevText = ")";
        continue;
      }
      if (tokenIs(toks_, j, ":") ) {
        inInitList = true;
        prevText = ":";
        ++j;
        continue;
      }
      if (tokenIs(toks_, j, "{")) {
        if (inInitList && !prevText.empty() &&
            isIdentStart(prevText[0])) {
          // `: member_{...}` brace initializer inside the init list.
          j = skipBalanced(j, "{", "}");
          prevText = "}";
          continue;
        }
        pendingFunction_ = true;
        pendingFunctionName_ = name;
        pendingFunctionClass_ = cls;
        pendingFunctionLine_ = headLine;
        return j;  // body `{` handled by the main loop
      }
      prevText = toks_[j].kind == TokenKind::kString ? "\"" : toks_[j].text;
      ++j;
    }
    return j;
  }

  // Inside a function body.
  std::size_t handleFunctionScopeIdent(std::size_t i) {
    currentLine_ = toks_[i].line;
    const ScopeFrame* fn = innermostFunction();
    if (fn == nullptr) return i + 1;
    const Token& t = toks_[i];

    if (isLockType(t.text)) {
      return handleGuardConstruction(i, *fn);
    }

    // guard.unlock() / guard.lock() on a tracked guard variable.
    if (nextIs(toks_, i, ".") &&
        (seqAt(toks_, i + 2, {"unlock", "("}) ||
         seqAt(toks_, i + 2, {"lock", "("}))) {
      for (auto& g : guards_) {
        if (g.var != t.text) continue;
        const bool relock = tokenIs(toks_, i + 2, "lock");
        if (relock && !g.active) {
          // Re-acquisition: held set = the other still-active guards.
          for (const auto& e : g.exprs) {
            facts_.acquires.push_back(
                {fn->name, fn->className, e, activeHeld(), t.line});
          }
          g.active = true;
        } else if (!relock) {
          g.active = false;
        }
        return i + 5;  // var . (un)lock ( )  — `)` at i+4
      }
    }

    // `new Buffer` — foreign buffer construction.
    if (t.text == "new" && nextIs(toks_, i, "Buffer")) {
      facts_.pool.push_back(
          {"buffer-new", fn->name, "new", "", toks_[i + 1].line});
      return i + 2;
    }
    if (t.text == "make_unique" && seqAt(toks_, i + 1, {"<", "Buffer"})) {
      facts_.pool.push_back(
          {"buffer-new", fn->name, "make_unique", "", t.line});
      return i + 1;
    }

    if (nextIs(toks_, i, "(")) {
      return handleCallLike(i, *fn);
    }

    // Bare this-member mutation under a held lock.
    if (endsWith(t.text, "_") && !isGuardVar(t.text) &&
        !activeHeld().empty()) {
      maybeRecordMutation(i, *fn);
    }
    return i + 1;
  }

  bool isGuardVar(const std::string& name) const {
    for (const auto& g : guards_) {
      if (g.var == name) return true;
    }
    return false;
  }

  std::size_t handleGuardConstruction(std::size_t i, const ScopeFrame& fn) {
    std::size_t j = i + 1;
    if (tokenIs(toks_, j, "<")) j = skipAngles(j);
    if (j >= toks_.size() || toks_[j].kind != TokenKind::kIdent) {
      return i + 1;  // a type mention, not a guard construction
    }
    const std::string var = toks_[j].text;
    if (!tokenIs(toks_, j + 1, "(")) return j + 1;
    const std::size_t close = skipBalanced(j + 1, "(", ")");

    // Split the constructor arguments on top-level commas.
    std::vector<std::string> exprs;
    std::size_t argBegin = j + 2;
    int depth = 0;
    for (std::size_t k = j + 2; k + 1 < close; ++k) {
      if (tokenIs(toks_, k, "(") || tokenIs(toks_, k, "[")) ++depth;
      if (tokenIs(toks_, k, ")") || tokenIs(toks_, k, "]")) --depth;
      if (depth == 0 && tokenIs(toks_, k, ",")) {
        exprs.push_back(joinTokens(toks_, argBegin, k));
        argBegin = k + 1;
      }
    }
    if (argBegin < close - 1) {
      exprs.push_back(joinTokens(toks_, argBegin, close - 1));
    }
    // unique_lock tag arguments (std::defer_lock etc.) are not mutexes.
    exprs.erase(std::remove_if(exprs.begin(), exprs.end(),
                               [](const std::string& e) {
                                 return e.find("defer_lock") != std::string::npos ||
                                        e.find("adopt_lock") != std::string::npos ||
                                        e.find("try_to_lock") != std::string::npos;
                               }),
                exprs.end());
    if (exprs.empty()) return close;

    const std::vector<std::string> held = activeHeld();
    for (const auto& e : exprs) {
      facts_.acquires.push_back(
          {fn.name, fn.className, e, held, toks_[i].line});
    }
    guards_.push_back({var, exprs, braceDepth_, true});
    return close;
  }

  std::size_t handleCallLike(std::size_t i, const ScopeFrame& fn) {
    const Token& t = toks_[i];
    if (isKeyword(t.text) || t.text == "operator") return i + 1;

    // Trace spans: DAGT_TRACE_SCOPE("name" ...).
    if (t.text == "DAGT_TRACE_SCOPE" || t.text == "DAGT_TRACE_INSTANT") {
      if (i + 2 < toks_.size() && toks_[i + 2].kind == TokenKind::kString) {
        facts_.spans.push_back(
            {t.text == "DAGT_TRACE_SCOPE" ? "scope" : "instant",
             toks_[i + 2].text, t.line});
      }
      return i + 2;
    }

    // Env knobs: any helper called with a "DAGT_[A-Z0-9_]+" literal first.
    if (i + 2 < toks_.size() && toks_[i + 2].kind == TokenKind::kString &&
        isKnobName(toks_[i + 2].text)) {
      facts_.envs.push_back({t.text, toks_[i + 2].text, t.line});
      return i + 3;
    }

    const bool memberCall =
        i >= 1 && (tokenIs(toks_, i - 1, ".") ||
                   (i >= 2 && tokenIs(toks_, i - 1, ">") &&
                    tokenIs(toks_, i - 2, "-")));

    // Pool events.
    if (t.text == "acquire" || t.text == "release" || t.text == "parkGlobal") {
      const std::string receiver = memberCall ? receiverChain(i) : "";
      const bool poolish = receiver.find("ool") != std::string::npos ||
                           t.text == "parkGlobal";
      if (poolish) {
        const std::size_t close = skipBalanced(i + 1, "(", ")");
        const std::string arg = joinTokens(toks_, i + 2, close - 1);
        facts_.pool.push_back({t.text == "parkGlobal" ? "park" : t.text,
                               fn.name, receiver, arg, t.line});
        return i + 2;
      }
    }
    if (t.text == "makeOut" || t.text == "makeView") {
      facts_.pool.push_back({"make-out", fn.name, t.text, "", t.line});
      return i + 2;
    }

    std::string qualifier;
    if (i >= 2 && tokenIs(toks_, i - 1, "::") &&
        toks_[i - 2].kind == TokenKind::kIdent) {
      qualifier = toks_[i - 2].text;
    }
    facts_.calls.push_back({fn.name, fn.className, t.text, qualifier,
                            memberCall, activeHeld(), t.line});
    return i + 1;
  }

  /// Textual receiver chain for x.y()->acquire(: walk back over
  /// ident / :: / . / -> / () tokens.
  std::string receiverChain(std::size_t i) const {
    std::size_t begin = i;
    // Step over the . or -> that precedes the member name.
    if (begin >= 1 && tokenIs(toks_, begin - 1, ".")) {
      begin -= 1;
    } else if (begin >= 2 && tokenIs(toks_, begin - 1, ">") &&
               tokenIs(toks_, begin - 2, "-")) {
      begin -= 2;
    } else {
      return "";
    }
    std::size_t k = begin;
    int parens = 0;
    while (k > 0) {
      const Token& p = toks_[k - 1];
      if (tokenIs(toks_, k - 1, ")")) {
        ++parens;
        --k;
        continue;
      }
      if (tokenIs(toks_, k - 1, "(")) {
        if (parens == 0) break;
        --parens;
        --k;
        continue;
      }
      if (parens > 0) {
        --k;
        continue;
      }
      if (p.kind == TokenKind::kIdent || tokenIs(toks_, k - 1, "::") ||
          tokenIs(toks_, k - 1, ".") ||
          tokenIs(toks_, k - 1, ">") || tokenIs(toks_, k - 1, "-")) {
        --k;
        continue;
      }
      break;
    }
    return joinTokens(toks_, k, begin);
  }

  void maybeRecordMutation(std::size_t i, const ScopeFrame& fn) {
    // Only bare (this-)member accesses: the previous token must not be a
    // member-access or scope operator.
    if (i >= 1 && (tokenIs(toks_, i - 1, ".") ||
                   tokenIs(toks_, i - 1, ">") ||
                   tokenIs(toks_, i - 1, "::"))) {
      return;
    }
    const std::string& field = toks_[i].text;
    bool mutated = false;

    // field_ = ...   (but not ==, <=, >=, !=)
    if (tokenIs(toks_, i + 1, "=") && !tokenIs(toks_, i + 2, "=") &&
        !(i >= 1 && (tokenIs(toks_, i - 1, "=") ||
                     tokenIs(toks_, i - 1, "!") ||
                     tokenIs(toks_, i - 1, "<") ||
                     tokenIs(toks_, i - 1, ">")))) {
      mutated = true;
    }
    // field_ += / -= / |= / &= / ^=
    if (!mutated &&
        (tokenIs(toks_, i + 1, "+") || tokenIs(toks_, i + 1, "-") ||
         tokenIs(toks_, i + 1, "|") || tokenIs(toks_, i + 1, "&") ||
         tokenIs(toks_, i + 1, "^")) &&
        tokenIs(toks_, i + 2, "=") && !tokenIs(toks_, i + 3, "=")) {
      mutated = true;
    }
    // field_++ / field_--
    if (!mutated && ((seqAt(toks_, i + 1, {"+", "+"})) ||
                     (seqAt(toks_, i + 1, {"-", "-"})))) {
      mutated = true;
    }
    // field_.mutatingMethod(...)
    if (!mutated && tokenIs(toks_, i + 1, ".") && i + 2 < toks_.size()) {
      static const std::set<std::string> mutators = {
          "push_back", "pop_back",  "push_front", "pop_front", "emplace",
          "emplace_back", "emplace_front", "erase", "clear", "insert",
          "reset", "emplace_hint", "assign", "swap", "resize"};
      if (mutators.count(toks_[i + 2].text) != 0) mutated = true;
    }
    // field_[...] = ...
    if (!mutated && tokenIs(toks_, i + 1, "[")) {
      const std::size_t close = skipBalanced(i + 1, "[", "]");
      if (tokenIs(toks_, close, "=") &&
          !tokenIs(toks_, close + 1, "=")) {
        mutated = true;
      }
    }
    if (!mutated) return;
    facts_.mutations.push_back(
        {fn.name, fn.className, field, activeHeld(), toks_[i].line});
  }

  // -- comment channels -----------------------------------------------------

  void collectGuardedByComments() {
    // Idents ending in '_' per line, for field-name association.
    std::map<int, std::vector<std::string>> fieldsByLine;
    for (const auto& t : toks_) {
      if (t.kind == TokenKind::kIdent && endsWith(t.text, "_")) {
        fieldsByLine[t.line].push_back(t.text);
      }
    }
    for (const auto& [line, body] : lexed_.commentByLine) {
      std::size_t at = body.find("GUARDED_BY(");
      while (at != std::string::npos) {
        const std::size_t close = body.find(')', at);
        if (close == std::string::npos) break;
        const std::string mutexName = body.substr(at + 11, close - at - 11);
        const ClassRange* cls = classAtLine(line);
        if (cls != nullptr) {
          // The annotated field: first '_'-suffixed ident on the comment's
          // own line (trailing comment), else on the next few lines
          // (comment-above style, possibly a multi-line declaration).
          std::string field;
          for (int probe = line; probe <= line + 3 && field.empty(); ++probe) {
            const auto it = fieldsByLine.find(probe);
            if (it != fieldsByLine.end()) field = it->second.front();
          }
          if (!field.empty() && field != mutexName) {
            facts_.guarded.push_back({cls->name, field, mutexName, line});
          }
        }
        at = body.find("GUARDED_BY(", close);
      }
    }
  }

  const ClassRange* classAtLine(int line) const {
    const ClassRange* best = nullptr;
    for (const auto& r : classRanges_) {
      if (line < r.startLine || line > r.endLine) continue;
      if (best == nullptr || r.startLine > best->startLine) best = &r;
    }
    return best;
  }

  void collectAnnotations() {
    for (const auto& [line, body] : lexed_.commentByLine) {
      std::size_t at = body.find("dagt-analyze:");
      while (at != std::string::npos) {
        std::size_t cursor = at + 13;
        for (const char* kind : {"lock-order", "mutex", "allow"}) {
          const std::string probe = std::string(kind) + "(";
          const std::size_t open = body.find(probe, cursor);
          if (open == std::string::npos) continue;
          const std::size_t close = body.find(')', open);
          if (close == std::string::npos) continue;
          std::string value =
              body.substr(open + probe.size(), close - open - probe.size());
          value.erase(std::remove_if(value.begin(), value.end(),
                                     [](char c) {
                                       return std::isspace(
                                           static_cast<unsigned char>(c));
                                     }),
                      value.end());
          facts_.annotations.push_back({kind, value, line});
        }
        at = body.find("dagt-analyze:", at + 13);
      }
    }
    std::sort(facts_.annotations.begin(), facts_.annotations.end(),
              [](const Annotation& a, const Annotation& b) {
                if (a.line != b.line) return a.line < b.line;
                if (a.kind != b.kind) return a.kind < b.kind;
                return a.value < b.value;
              });
  }

  const std::string& path_;
  const LexedFile& lexed_;
  const std::vector<Token>& toks_;
  TuFacts facts_;
  std::vector<ScopeFrame> scopes_;
  std::vector<Guard> guards_;
  std::vector<ClassRange> classStack_;
  std::vector<ClassRange> classRanges_;
  int braceDepth_ = 0;
  int currentLine_ = 0;

  bool pendingFunction_ = false;
  std::string pendingFunctionName_;
  std::string pendingFunctionClass_;
  int pendingFunctionLine_ = 0;
  std::string pendingClass_;
  int pendingLine_ = 0;
  bool pendingNamespace_ = false;
  std::string pendingNamespaceName_;
  bool pendingEnum_ = false;
};

/// KernelTable slots: `( * name ) ( ... )` function-pointer members inside
/// the struct's declaration. Collected with a flat token scan scoped to the
/// KernelTable braces (the struct holds nothing else).
std::vector<std::string> collectKernelMembers(const LexedFile& lexed) {
  std::vector<std::string> members;
  const auto& toks = lexed.tokens;
  std::size_t begin = toks.size();
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if ((tokenIs(toks, i, "struct") || tokenIs(toks, i, "class")) &&
        tokenIs(toks, i + 1, "KernelTable") &&
        tokenIs(toks, i + 2, "{")) {
      begin = i + 3;
      break;
    }
  }
  int depth = 1;
  for (std::size_t i = begin; i < toks.size() && depth > 0; ++i) {
    if (tokenIs(toks, i, "{")) ++depth;
    if (tokenIs(toks, i, "}")) --depth;
    if (depth > 0 && tokenIs(toks, i, "(") &&
        tokenIs(toks, i + 1, "*") &&
        i + 3 < toks.size() && toks[i + 2].kind == TokenKind::kIdent &&
        tokenIs(toks, i + 3, ")")) {
      members.push_back(toks[i + 2].text);
    }
  }
  return members;
}

/// Tier tables in kernels_*.cpp: `KernelTable x { }` (zero-seeded) or
/// `KernelTable x = source ( )` (copy-seeded), plus `x . member =` assigns.
std::vector<TierTable> collectTierTables(const LexedFile& lexed) {
  std::vector<TierTable> tables;
  const auto& toks = lexed.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!tokenIs(toks, i, "KernelTable")) continue;
    if (toks[i + 1].kind != TokenKind::kIdent) continue;
    TierTable table;
    table.var = toks[i + 1].text;
    table.line = toks[i].line;
    if (tokenIs(toks, i + 2, "{")) {
      // zero-seeded
    } else if (tokenIs(toks, i + 2, "=") && i + 3 < toks.size() &&
               toks[i + 3].kind == TokenKind::kIdent &&
               tokenIs(toks, i + 4, "(")) {
      table.seedSource = toks[i + 3].text;
    } else {
      continue;  // a parameter or reference, not a table definition
    }
    for (std::size_t k = i; k + 3 < toks.size(); ++k) {
      if (tokenIs(toks, k, table.var.c_str()) &&
          tokenIs(toks, k + 1, ".") &&
          toks[k + 2].kind == TokenKind::kIdent &&
          tokenIs(toks, k + 3, "=") && !tokenIs(toks, k + 4, "=")) {
        table.assigned.push_back(toks[k + 2].text);
      }
    }
    tables.push_back(std::move(table));
  }
  return tables;
}

// -- serialization ----------------------------------------------------------

std::string enc(const std::string& s) { return s.empty() ? "-" : s; }

std::string encList(const std::vector<std::string>& v) {
  if (v.empty()) return "-";
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += v[i];
  }
  return out;
}

}  // namespace

TuFacts extractFacts(const std::string& path, const LexedFile& lexed) {
  Extractor extractor(path, lexed);
  TuFacts facts = extractor.run();
  if (endsWith(path, "kernels.hpp")) {
    facts.kernelMembers = collectKernelMembers(lexed);
  }
  const std::size_t slash = path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  if (startsWith(base, "kernels_") && endsWith(base, ".cpp")) {
    facts.tiers = collectTierTables(lexed);
  }
  return facts;
}

std::string serializeFacts(const TuFacts& f) {
  std::ostringstream os;
  os << "path\t" << enc(f.path) << "\n";
  for (const auto& m : f.mutexes) {
    os << "mutex\t" << enc(m.className) << "\t" << enc(m.member) << "\t"
       << m.line << "\n";
  }
  for (const auto& g : f.guarded) {
    os << "guard\t" << enc(g.className) << "\t" << enc(g.field) << "\t"
       << enc(g.mutexName) << "\t" << g.line << "\n";
  }
  for (const auto& fn : f.functions) {
    os << "fn\t" << enc(fn.className) << "\t" << enc(fn.name) << "\t"
       << fn.line << "\n";
  }
  for (const auto& a : f.acquires) {
    os << "acq\t" << enc(a.function) << "\t" << enc(a.className) << "\t"
       << enc(a.mutexExpr) << "\t" << a.line << "\t" << encList(a.held)
       << "\n";
  }
  for (const auto& c : f.calls) {
    os << "call\t" << enc(c.function) << "\t" << enc(c.className) << "\t"
       << enc(c.callee) << "\t" << enc(c.qualifier) << "\t"
       << (c.memberCall ? 1 : 0) << "\t" << c.line << "\t" << encList(c.held)
       << "\n";
  }
  for (const auto& m : f.mutations) {
    os << "mut\t" << enc(m.function) << "\t" << enc(m.className) << "\t"
       << enc(m.field) << "\t" << m.line << "\t" << encList(m.held) << "\n";
  }
  for (const auto& p : f.pool) {
    os << "pool\t" << enc(p.kind) << "\t" << enc(p.function) << "\t"
       << enc(p.receiver) << "\t" << enc(p.arg) << "\t" << p.line << "\n";
  }
  for (const auto& s : f.spans) {
    os << "span\t" << enc(s.kind) << "\t" << enc(s.name) << "\t" << s.line
       << "\n";
  }
  for (const auto& e : f.envs) {
    os << "env\t" << enc(e.via) << "\t" << enc(e.name) << "\t" << e.line
       << "\n";
  }
  for (const auto& k : f.kernelMembers) {
    os << "kmember\t" << enc(k) << "\n";
  }
  for (const auto& t : f.tiers) {
    os << "tier\t" << enc(t.var) << "\t" << enc(t.seedSource) << "\t"
       << t.line << "\t" << encList(t.assigned) << "\n";
  }
  for (const auto& a : f.annotations) {
    os << "annot\t" << enc(a.kind) << "\t" << enc(a.value) << "\t" << a.line
       << "\n";
  }
  return os.str();
}

}  // namespace dagt::analyze
