#include "server/json_parse.hpp"

#include <cctype>
#include <cstdlib>

namespace htp::serve {

namespace {

// Containers nest at most this deep. The parser recurses once per level,
// so without a cap one line of 200k '[' overflows the stack and kills the
// daemon with every request in flight. Requests nest two levels deep.
constexpr std::size_t kMaxDepth = 128;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue ParseDocument() {
    SkipWhitespace();
    JsonValue value = ParseValue(0);
    SkipWhitespace();
    if (pos_ != text_.size()) Fail("trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void Fail(const std::string& what) {
    throw Error("json: " + what + " at byte " + std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char Peek() {
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) Fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  // `depth` counts the containers enclosing the value.
  JsonValue ParseValue(std::size_t depth) {
    switch (Peek()) {
      case '{':
        return ParseObject(depth + 1);
      case '[':
        return ParseArray(depth + 1);
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string_value = ParseString();
        return v;
      }
      case 't':
        if (!ConsumeLiteral("true")) Fail("bad literal");
        return MakeBool(true);
      case 'f':
        if (!ConsumeLiteral("false")) Fail("bad literal");
        return MakeBool(false);
      case 'n':
        if (!ConsumeLiteral("null")) Fail("bad literal");
        return JsonValue{};
      default:
        return ParseNumber();
    }
  }

  static JsonValue MakeBool(bool b) {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    v.bool_value = b;
    return v;
  }

  void CheckDepth(std::size_t depth) {
    if (depth > kMaxDepth)
      Fail("nesting deeper than " + std::to_string(kMaxDepth));
  }

  JsonValue ParseObject(std::size_t depth) {
    CheckDepth(depth);
    Expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      SkipWhitespace();
      std::string key = ParseString();
      SkipWhitespace();
      Expect(':');
      SkipWhitespace();
      v.object_value[std::move(key)] = ParseValue(depth);
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect('}');
      return v;
    }
  }

  JsonValue ParseArray(std::size_t depth) {
    CheckDepth(depth);
    Expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      SkipWhitespace();
      v.array_value.push_back(ParseValue(depth));
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect(']');
      return v;
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) Fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        Fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) Fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': AppendUnicodeEscape(out); break;
        default: Fail("unknown escape sequence");
      }
    }
  }

  unsigned ParseHex4() {
    if (pos_ + 4 > text_.size()) Fail("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else Fail("bad hex digit in \\u escape");
    }
    return value;
  }

  void AppendUnicodeEscape(std::string& out) {
    unsigned code = ParseHex4();
    // Surrogate pair: a high surrogate must be followed by \uDC00-\uDFFF.
    if (code >= 0xD800 && code <= 0xDBFF) {
      if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u')
        Fail("unpaired surrogate");
      pos_ += 2;
      const unsigned low = ParseHex4();
      if (low < 0xDC00 || low > 0xDFFF) Fail("bad low surrogate");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      Fail("unpaired surrogate");
    }
    // UTF-8 encode.
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  JsonValue ParseNumber() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
      Fail("bad number");
    // Integer part: a leading zero must stand alone.
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        Fail("bad number");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        Fail("bad number");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    // The slice is a validated JSON number, a strict subset of strtod's
    // grammar, so conversion cannot fail.
    v.number_value = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(), nullptr);
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = object_value.find(std::string(key));
  return it == object_value.end() ? nullptr : &it->second;
}

JsonValue ParseJson(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace htp::serve
