#include "util/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/parse.hpp"

namespace nofis::util {

// ---------------------------------------------------------------------------
// Json — construction / access
// ---------------------------------------------------------------------------

Json Json::boolean(bool b) {
    Json j;
    j.type_ = Type::kBool;
    j.bool_ = b;
    return j;
}

Json Json::number(double v) {
    Json j;
    j.type_ = Type::kNumber;
    j.num_ = v;
    return j;
}

Json Json::number_u64(std::uint64_t v) {
    Json j;
    j.type_ = Type::kNumber;
    j.num_ = static_cast<double>(v);
    j.u64_ = v;
    j.is_u64_ = true;
    return j;
}

Json Json::string(std::string s) {
    Json j;
    j.type_ = Type::kString;
    j.str_ = std::move(s);
    return j;
}

Json Json::array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
}

Json Json::object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
}

namespace {
[[noreturn]] void type_error(const char* want) {
    throw std::runtime_error(std::string("json: value is not ") + want);
}
}  // namespace

bool Json::as_bool() const {
    if (type_ != Type::kBool) type_error("a bool");
    return bool_;
}

double Json::as_double() const {
    if (type_ != Type::kNumber) type_error("a number");
    return num_;
}

std::uint64_t Json::as_u64() const {
    if (type_ != Type::kNumber) type_error("a number");
    if (is_u64_) return u64_;
    if (num_ < 0.0 || num_ != std::floor(num_))
        type_error("an unsigned integer");
    return static_cast<std::uint64_t>(num_);
}

const std::string& Json::as_string() const {
    if (type_ != Type::kString) type_error("a string");
    return str_;
}

const Json* Json::find(std::string_view key) const noexcept {
    for (const auto& [k, v] : members_)
        if (k == key) return &v;
    return nullptr;
}

Json& Json::set(std::string_view key, Json v) {
    for (auto& [k, existing] : members_) {
        if (k == key) {
            existing = std::move(v);
            return *this;
        }
    }
    members_.emplace_back(std::string(key), std::move(v));
    return *this;
}

// ---------------------------------------------------------------------------
// Json — encoding
// ---------------------------------------------------------------------------

namespace {
void encode_string(std::string& out, std::string_view s) {
    out += '"';
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x",
                                  static_cast<unsigned>(c) & 0xff);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}
}  // namespace

void Json::encode_to(std::string& out) const {
    switch (type_) {
        case Type::kNull:
            out += "null";
            break;
        case Type::kBool:
            out += bool_ ? "true" : "false";
            break;
        case Type::kNumber: {
            char buf[kMaxDoubleChars];
            if (is_u64_) {
                out.append(buf,
                           std::to_chars(buf, buf + sizeof(buf), u64_).ptr);
            } else if (!std::isfinite(num_)) {
                // JSON has no nan/inf tokens: the document must parse.
                out += "null";
            } else {
                out.append(buf, format_double(num_, buf));
            }
            break;
        }
        case Type::kString:
            encode_string(out, str_);
            break;
        case Type::kArray: {
            out += '[';
            for (std::size_t i = 0; i < items_.size(); ++i) {
                if (i) out += ',';
                items_[i].encode_to(out);
            }
            out += ']';
            break;
        }
        case Type::kObject: {
            out += '{';
            bool first = true;
            for (const auto& [k, v] : members_) {
                if (!first) out += ',';
                first = false;
                encode_string(out, k);
                out += ':';
                v.encode_to(out);
            }
            out += '}';
            break;
        }
    }
}

std::string Json::encode() const {
    std::string out;
    encode_to(out);
    return out;
}

// ---------------------------------------------------------------------------
// Json — parsing
// ---------------------------------------------------------------------------

class JsonParser {
public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    Json parse_document() {
        skip_ws();
        Json v = parse_value();
        skip_ws();
        if (pos_ != text_.size()) fail("trailing characters after document");
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& what) const {
        throw std::runtime_error("json parse error at offset " +
                                 std::to_string(pos_) + ": " + what);
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char peek() const {
        if (pos_ >= text_.size())
            throw std::runtime_error("json parse error: unexpected end");
        return text_[pos_];
    }

    void expect(char c) {
        if (pos_ >= text_.size() || text_[pos_] != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume_literal(std::string_view lit) {
        if (text_.substr(pos_, lit.size()) != lit) return false;
        pos_ += lit.size();
        return true;
    }

    Json parse_value() {
        skip_ws();
        const char c = peek();
        if (c == '{' || c == '[') {
            if (++depth_ > Json::kMaxDepth)
                fail("nesting deeper than " +
                     std::to_string(Json::kMaxDepth) + " levels");
            Json v = c == '{' ? parse_object() : parse_array();
            --depth_;
            return v;
        }
        if (c == '"') return Json::string(parse_string());
        if (c == 't') {
            if (!consume_literal("true")) fail("bad literal");
            return Json::boolean(true);
        }
        if (c == 'f') {
            if (!consume_literal("false")) fail("bad literal");
            return Json::boolean(false);
        }
        if (c == 'n') {
            if (!consume_literal("null")) fail("bad literal");
            return Json::null();
        }
        return parse_number();
    }

    Json parse_object() {
        expect('{');
        Json obj = Json::object();
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return obj;
        }
        while (true) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            obj.members_.emplace_back(std::move(key), parse_value());
            skip_ws();
            if (pos_ >= text_.size()) fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            reject_duplicate_keys(obj);
            return obj;
        }
    }

    /// Sorting the keys finds a repeat in O(n log n); members are appended
    /// unchecked while parsing, so an object costs no per-key scan.
    void reject_duplicate_keys(const Json& obj) const {
        if (obj.members_.size() < 2) return;
        std::vector<std::string_view> keys;
        keys.reserve(obj.members_.size());
        for (const auto& member : obj.members_) keys.push_back(member.first);
        std::sort(keys.begin(), keys.end());
        if (std::adjacent_find(keys.begin(), keys.end()) != keys.end())
            fail("duplicate object key");
    }

    Json parse_array() {
        expect('[');
        Json arr = Json::array();
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return arr;
        }
        while (true) {
            arr.push_back(parse_value());
            skip_ws();
            if (pos_ >= text_.size()) fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return arr;
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) fail("dangling escape");
            const char esc = text_[pos_++];
            switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) fail("bad \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9') code |= h - '0';
                        else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
                        else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
                        else fail("bad \\u escape");
                    }
                    // The protocol only ever emits \u00xx control escapes;
                    // encode the code point as UTF-8 for generality.
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xc0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    } else {
                        out += static_cast<char>(0xe0 | (code >> 12));
                        out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    }
                    break;
                }
                default:
                    fail("unknown escape");
            }
        }
    }

    Json parse_number() {
        const std::size_t start = pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (!std::isdigit(static_cast<unsigned char>(c)) && c != '.' &&
                c != 'e' && c != 'E' && c != '+' && c != '-')
                break;
            ++pos_;
        }
        if (pos_ == start) fail("expected a value");
        const std::string_view lexeme = text_.substr(start, pos_ - start);
        if (const auto u = parse_u64(lexeme)) return Json::number_u64(*u);
        if (const auto d = parse_double(lexeme)) return Json::number(*d);
        fail("malformed number '" + std::string(lexeme) + "'");
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;  ///< arrays/objects open at pos_
};

Json Json::parse(std::string_view text) {
    return JsonParser(text).parse_document();
}

}  // namespace nofis::util
