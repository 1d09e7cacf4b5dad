#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nofis::util {

/// Minimal JSON document model: the serving wire protocol, the metrics
/// documents (telemetry::RunTrace, the cluster fleet record) and the
/// benchmark's result line all encode through it. Object members keep
/// insertion order so an encoded response is byte-stable: the serving
/// determinism guarantee ("bitwise-identical responses regardless of
/// batching, queue order or thread count") is checked on the encoded bytes.
///
/// Numbers remember whether their lexeme was an unsigned integer, so 64-bit
/// request seeds round-trip exactly instead of through a double.
class Json {
public:
    enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

    Json() = default;
    static Json null() { return Json(); }
    static Json boolean(bool b);
    static Json number(double v);
    static Json number_u64(std::uint64_t v);
    static Json string(std::string s);
    static Json array();
    static Json object();

    Type type() const noexcept { return type_; }
    bool is_null() const noexcept { return type_ == Type::kNull; }
    bool is_object() const noexcept { return type_ == Type::kObject; }
    bool is_array() const noexcept { return type_ == Type::kArray; }
    bool is_number() const noexcept { return type_ == Type::kNumber; }
    bool is_string() const noexcept { return type_ == Type::kString; }
    bool is_bool() const noexcept { return type_ == Type::kBool; }

    bool as_bool() const;
    double as_double() const;
    /// Exact when the lexeme was a plain unsigned integer; otherwise the
    /// double value converted (throws on negative / non-integral).
    std::uint64_t as_u64() const;
    const std::string& as_string() const;

    // --- array ------------------------------------------------------------
    std::size_t size() const noexcept { return items_.size(); }
    const Json& at(std::size_t i) const { return items_.at(i); }
    void push_back(Json v) { items_.push_back(std::move(v)); }

    // --- object (insertion-ordered) ---------------------------------------
    /// nullptr when the key is absent.
    const Json* find(std::string_view key) const noexcept;
    /// Appends (or overwrites) a member; returns *this for chaining.
    Json& set(std::string_view key, Json v);
    /// Object members in insertion order (empty for non-objects). The
    /// cluster metrics aggregator iterates worker records through this.
    const std::vector<std::pair<std::string, Json>>& members() const noexcept {
        return members_;
    }

    /// Compact single-line encoding. Doubles use "%.17g" so every distinct
    /// double has one canonical spelling and values survive a round-trip.
    std::string encode() const;
    void encode_to(std::string& out) const;

    /// Parses exactly one JSON document from `text` (leading/trailing
    /// whitespace allowed). Throws std::runtime_error with a position
    /// diagnostic on malformed input.
    static Json parse(std::string_view text);

private:
    Type type_ = Type::kNull;
    bool bool_ = false;
    double num_ = 0.0;
    std::uint64_t u64_ = 0;
    bool is_u64_ = false;  ///< lexeme was an unsigned integer
    std::string str_;
    std::vector<Json> items_;
    std::vector<std::pair<std::string, Json>> members_;
};

}  // namespace nofis::util
