#include "serve/query_lang.hpp"

#include <cctype>
#include <limits>
#include <utility>

namespace mssg::serve {

namespace {

// ---------------------------------------------------------------------------
// Lexer

struct Token {
  enum class Kind { kWord, kNumber, kOp, kEnd };
  Kind kind = Kind::kEnd;
  std::string text;          // kWord: uppercased; kOp: literal spelling
  std::uint64_t number = 0;  // kNumber
  std::size_t position = 0;  // byte offset of the token's first byte
};

/// Internal control flow only — parse_query converts it to a structured
/// QueryError; it never crosses the public API.
struct ParseFail {
  QueryError error;
};

[[noreturn]] void fail(std::string message, std::size_t position) {
  throw ParseFail{QueryError{std::move(message), position}};
}

bool is_word_byte(unsigned char c) {
  return (std::isalpha(c) != 0) || c == '_' || c == '-';
}

std::vector<Token> lex(std::string_view text) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  while (i < text.size()) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      ++i;
      continue;
    }
    Token token;
    token.position = i;
    if (std::isdigit(c) != 0) {
      token.kind = Token::Kind::kNumber;
      std::uint64_t value = 0;
      while (i < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[i])) != 0) {
        const std::uint64_t digit =
            static_cast<std::uint64_t>(text[i] - '0');
        if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
          fail("number overflows 64 bits", token.position);
        }
        value = value * 10 + digit;
        ++i;
      }
      token.number = value;
    } else if (is_word_byte(c)) {
      token.kind = Token::Kind::kWord;
      while (i < text.size() &&
             is_word_byte(static_cast<unsigned char>(text[i]))) {
        token.text.push_back(static_cast<char>(
            std::toupper(static_cast<unsigned char>(text[i]))));
        ++i;
      }
    } else if (c == '=' || c == '<' || c == '>') {
      token.kind = Token::Kind::kOp;
      token.text.push_back(static_cast<char>(c));
      ++i;
    } else if (c == '!' && i + 1 < text.size() && text[i + 1] == '=') {
      token.kind = Token::Kind::kOp;
      token.text = "!=";
      i += 2;
    } else {
      // Anything else — punctuation, quotes, non-UTF8 bytes — is a
      // structured lexer error pointing at the offending byte.
      fail("unexpected byte 0x" + [c] {
             static constexpr char kHex[] = "0123456789abcdef";
             return std::string{kHex[c >> 4], kHex[c & 0xf]};
           }(),
           i);
    }
    tokens.push_back(std::move(token));
  }
  Token end;
  end.kind = Token::Kind::kEnd;
  end.position = text.size();
  tokens.push_back(std::move(end));
  return tokens;
}

// ---------------------------------------------------------------------------
// Parser (recursive descent over the token stream)

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Statement parse() {
    const Token& verb = next("a query verb (GET, PATH, NEIGHBORS, RANK, CC, "
                             "COUNT, STATS)");
    if (verb.kind != Token::Kind::kWord) {
      fail("expected a query verb", verb.position);
    }
    Statement stmt;
    if (verb.text == "GET") {
      stmt.kind = Statement::Kind::kGet;
      stmt.vertices.push_back(number("a vertex id"));
      maybe_where(stmt);
    } else if (verb.text == "PATH") {
      stmt.kind = Statement::Kind::kPath;
      stmt.vertices.push_back(number("a source vertex id"));
      stmt.vertices.push_back(number("a destination vertex id"));
      while (peek().kind == Token::Kind::kNumber) {
        stmt.vertices.push_back(number("a vertex id"));
      }
      if (accept_word("MAXLEN")) {
        const Token& n = next("the MAXLEN hop bound");
        if (n.kind != Token::Kind::kNumber) {
          fail("MAXLEN needs a number", n.position);
        }
        if (n.number == 0) fail("MAXLEN must be >= 1", n.position);
        stmt.maxlen = n.number;
      }
    } else if (verb.text == "NEIGHBORS") {
      stmt.kind = Statement::Kind::kNeighbors;
      stmt.vertices.push_back(number("a vertex id"));
      if (accept_word("DEPTH")) {
        const Token& n = next("the DEPTH value");
        if (n.kind != Token::Kind::kNumber) {
          fail("DEPTH needs a number", n.position);
        }
        if (n.number == 0) fail("DEPTH must be >= 1", n.position);
        stmt.depth = n.number;
      }
      maybe_where(stmt);
    } else if (verb.text == "RANK") {
      stmt.kind = Statement::Kind::kRank;
      expect_word("TOP");
      const Token& k = next("the TOP k value");
      if (k.kind != Token::Kind::kNumber) {
        fail("RANK TOP needs a number", k.position);
      }
      if (k.number == 0) fail("RANK TOP must be >= 1", k.position);
      stmt.top_k = k.number;
      if (accept_word("ITER")) {
        const Token& n = next("the ITER count");
        if (n.kind != Token::Kind::kNumber) {
          fail("ITER needs a number", n.position);
        }
        if (n.number == 0) fail("ITER must be >= 1", n.position);
        stmt.iterations = n.number;
      }
    } else if (verb.text == "CC") {
      stmt.kind = Statement::Kind::kCc;
    } else if (verb.text == "COUNT") {
      stmt.kind = Statement::Kind::kCountTriangles;
      expect_word("TRIANGLES");
    } else if (verb.text == "STATS") {
      stmt.kind = Statement::Kind::kStats;
    } else {
      fail("unknown query verb '" + verb.text + "'", verb.position);
    }
    const Token& tail = peek();
    if (tail.kind != Token::Kind::kEnd) {
      fail("unexpected trailing input", tail.position);
    }
    return stmt;
  }

 private:
  const Token& peek() const { return tokens_[index_]; }

  const Token& next(const std::string& expectation) {
    const Token& token = tokens_[index_];
    if (token.kind == Token::Kind::kEnd) {
      fail("expected " + expectation + ", got end of input", token.position);
    }
    ++index_;
    return token;
  }

  std::uint64_t number(const std::string& expectation) {
    const Token& token = next(expectation);
    if (token.kind != Token::Kind::kNumber) {
      fail("expected " + expectation, token.position);
    }
    return token.number;
  }

  bool accept_word(std::string_view word) {
    const Token& token = peek();
    if (token.kind == Token::Kind::kWord && token.text == word) {
      ++index_;
      return true;
    }
    return false;
  }

  void expect_word(std::string_view word) {
    const Token& token = next("'" + std::string(word) + "'");
    if (token.kind != Token::Kind::kWord || token.text != word) {
      fail("expected '" + std::string(word) + "'", token.position);
    }
  }

  void maybe_where(Statement& stmt) {
    if (!accept_word("WHERE")) return;
    expect_word("META");
    const Token& op = next("a comparison operator (=, !=, <, >)");
    if (op.kind != Token::Kind::kOp) {
      fail("expected a comparison operator (=, !=, <, >)", op.position);
    }
    stmt.where.present = true;
    if (op.text == "=") {
      stmt.where.op = MetadataOp::kEqual;
    } else if (op.text == "!=") {
      stmt.where.op = MetadataOp::kNotEqual;
    } else if (op.text == "<") {
      stmt.where.op = MetadataOp::kLess;
    } else {
      stmt.where.op = MetadataOp::kGreater;
    }
    const Token& value = next("the metadata value");
    if (value.kind != Token::Kind::kNumber) {
      fail("WHERE META needs a numeric value", value.position);
    }
    if (value.number >
        static_cast<std::uint64_t>(std::numeric_limits<Metadata>::max())) {
      fail("metadata value out of range", value.position);
    }
    stmt.where.value = static_cast<Metadata>(value.number);
  }

  std::vector<Token> tokens_;
  std::size_t index_ = 0;
};

}  // namespace

const char* to_string(QueryClass c) {
  switch (c) {
    case QueryClass::kPoint: return "point";
    case QueryClass::kTraversal: return "traversal";
    case QueryClass::kScan: return "scan";
  }
  return "unknown";
}

ParseResult parse_query(std::string_view text) {
  ParseResult result;
  try {
    if (text.empty()) fail("empty query", 0);
    result.statement = Parser(lex(text)).parse();
  } catch (const ParseFail& f) {
    result.error = f.error;
  }
  return result;
}

PlanResult plan_statement(const Statement& statement) {
  PlanResult result;
  Plan plan;
  plan.statement = statement;
  switch (statement.kind) {
    case Statement::Kind::kGet:
      plan.query_class = QueryClass::kPoint;
      break;  // lookup-driven, no analysis steps
    case Statement::Kind::kNeighbors:
      plan.query_class = statement.depth <= 1 ? QueryClass::kPoint
                                              : QueryClass::kTraversal;
      break;  // lookup-driven, one job per depth level
    case Statement::Kind::kPath:
      plan.query_class = QueryClass::kTraversal;
      // One concurrent BFS per consecutive leg; only the distance (index
      // 0 of the cbfs layout) is rendered, so leg results stay
      // deterministic.
      for (std::size_t i = 0; i + 1 < statement.vertices.size(); ++i) {
        plan.steps.push_back(AnalysisStep{
            "cbfs", {statement.vertices[i], statement.vertices[i + 1]}, 0});
      }
      break;
    case Statement::Kind::kRank:
      plan.query_class = QueryClass::kScan;
      plan.steps.push_back(AnalysisStep{
          "toprank", {statement.top_k, statement.iterations}, 0});
      break;
    case Statement::Kind::kCc:
      plan.query_class = QueryClass::kScan;
      // lp-cc layout: {components, vertices, iterations, edges, seconds}
      plan.steps.push_back(AnalysisStep{"lp-cc", {}, 1});
      break;
    case Statement::Kind::kCountTriangles:
      plan.query_class = QueryClass::kScan;
      // triangles layout: {triangles, wedge_checks, edges, seconds}
      plan.steps.push_back(AnalysisStep{"triangles", {}, 1});
      break;
    case Statement::Kind::kStats:
      plan.query_class = QueryClass::kScan;
      plan.steps.push_back(AnalysisStep{"stats", {}, 0});
      break;
  }
  result.plan = std::move(plan);
  return result;
}

PlanResult compile_query(std::string_view text) {
  ParseResult parsed = parse_query(text);
  if (!parsed.ok()) return PlanResult{std::nullopt, parsed.error};
  return plan_statement(*parsed.statement);
}

std::string Plan::describe() const {
  std::string out;
  switch (statement.kind) {
    case Statement::Kind::kGet: out = "get"; break;
    case Statement::Kind::kPath:
      out = "path legs=" + std::to_string(statement.vertices.size() - 1);
      break;
    case Statement::Kind::kNeighbors:
      out = "neighbors depth=" + std::to_string(statement.depth);
      break;
    case Statement::Kind::kRank:
      out = "rank top=" + std::to_string(statement.top_k);
      break;
    case Statement::Kind::kCc: out = "cc"; break;
    case Statement::Kind::kCountTriangles: out = "count-triangles"; break;
    case Statement::Kind::kStats: out = "stats"; break;
  }
  out += " class=";
  out += to_string(query_class);
  return out;
}

}  // namespace mssg::serve
