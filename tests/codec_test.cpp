// Tests for the text number codec (util/parse.hpp) and the three decoders
// that read numbers through it: util::Json (wire requests and responses,
// metrics records), flow::load_stack (.nofisflow) and the CLI flag readers.
//
// The golden constants pin the exact bytes that save_stack and the server
// write for fixed stacks and requests.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "flow/serialize.hpp"
#include "rng/engine.hpp"
#include "rng/normal.hpp"
#include "serve/model_registry.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "util/hash.hpp"
#include "util/parse.hpp"

namespace {

using namespace nofis;

std::uint64_t fnv(const std::string& s) {
    return util::fnv1a64(s.data(), s.size());
}

/// A stack with every parameter non-zero (a fresh stack's output layers
/// are zero). With `specials`, its first matrix also holds values whose
/// spelling is easy to get wrong (too extreme to transport anything).
flow::CouplingStack golden_stack(flow::CouplingKind kind, bool actnorm,
                                 bool specials = true) {
    flow::StackConfig cfg;
    cfg.dim = 5;
    cfg.num_blocks = 2;
    cfg.layers_per_block = 2;
    cfg.hidden = {6, 4};
    cfg.coupling = kind;
    cfg.use_actnorm = actnorm;
    cfg.rqs_bins = 5;
    cfg.rqs_tail = 2.0 / 3.0;
    cfg.scale_cap = 1.5;
    rng::Engine init(17);
    flow::CouplingStack stack(cfg, init);
    rng::Engine weights(18);
    for (auto& p : stack.params())
        for (double& v : p.mutable_value().flat())
            v = 0.3 * rng::standard_normal(weights);
    if (!specials) return stack;
    auto params = stack.params();
    auto flat = params.front().mutable_value().flat();
    const double spellings[] = {0.1,
                                -0.0,
                                1e21,
                                1e-7,
                                std::numeric_limits<double>::denorm_min(),
                                DBL_MIN,
                                -DBL_MAX,
                                9007199254740993.0,
                                1e16,
                                1e-5,
                                123456.78901234567};
    for (std::size_t i = 0; i < std::size(spellings) && i < flat.size(); ++i)
        flat[i] = spellings[i];
    return stack;
}

std::string saved_text(const flow::CouplingStack& stack) {
    std::ostringstream os;
    flow::save_stack(stack, os);
    return os.str();
}

// ---------------------------------------------------------------------------
// Goldens
// ---------------------------------------------------------------------------

TEST(CodecGolden, SavedStackTextIsPinned) {
    struct Case {
        flow::CouplingKind kind;
        bool actnorm;
        std::uint64_t hash;
    };
    const Case cases[] = {
        {flow::CouplingKind::kAffine, false, 0xb353d0a527112ec9},
        {flow::CouplingKind::kAffine, true, 0x34f54d0d614a32e7},
        {flow::CouplingKind::kAdditive, false, 0x01395de38e2f8c68},
        {flow::CouplingKind::kAdditive, true, 0x765286cfe996f2d1},
        {flow::CouplingKind::kRqs, false, 0x0ed2f71b360fb034},
        {flow::CouplingKind::kRqs, true, 0x531fcc0f61c056a1},
    };
    for (const Case& c : cases) {
        const std::string text = saved_text(golden_stack(c.kind, c.actnorm));
        EXPECT_EQ(fnv(text), c.hash)
            << std::hex << "0x" << fnv(text) << " for kind "
            << flow::coupling_kind_name(c.kind) << " actnorm " << c.actnorm;
    }
}

TEST(CodecGolden, FreshStackTextIsPinned) {
    flow::StackConfig cfg;
    cfg.dim = 4;
    cfg.num_blocks = 2;
    cfg.layers_per_block = 3;
    cfg.hidden = {8};
    rng::Engine init(5);
    const std::string text = saved_text(flow::CouplingStack(cfg, init));
    EXPECT_EQ(fnv(text), 0xbc13e8a1b48f31d0ULL)
        << std::hex << "0x" << fnv(text);
}

/// Served bytes of one sample and one log_prob response, through the
/// registry and the scheduler exactly as `nofis_cli serve` answers them.
class CodecServe : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = ::testing::TempDir() + "nofis_codec_" +
               std::to_string(::getpid()) + "_" +
               ::testing::UnitTest::GetInstance()->current_test_info()->name();
        std::filesystem::create_directories(dir_);
        flow::save_stack(
            golden_stack(flow::CouplingKind::kAffine, false, false),
            dir_ + "/m.nofisflow");
    }
    void TearDown() override {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    serve::Response call(const serve::Request& req) {
        serve::ModelRegistry registry(dir_);
        serve::BatchScheduler scheduler(registry, serve::SchedulerConfig{});
        serve::Client client(scheduler);
        return client.call(req);
    }

    static serve::Request sample_request() {
        serve::Request req;
        req.id = 11;
        req.op = serve::Op::kSample;
        req.model = "m";
        req.seed = 42;
        req.n = 6;
        return req;
    }

    static serve::Request log_prob_request() {
        serve::Request req;
        req.id = 12;
        req.op = serve::Op::kLogProb;
        req.model = "m";
        req.x = linalg::Matrix(4, 5);
        rng::Engine eng(9);
        for (double& v : req.x.flat()) v = 1.5 * rng::standard_normal(eng);
        req.x(0, 0) = 0.1;
        req.x(1, 1) = -0.0;
        return req;
    }

    std::string dir_;
};

TEST_F(CodecServe, EncodedResponsesArePinned) {
    const serve::Response sample = call(sample_request());
    ASSERT_TRUE(sample.ok) << sample.error_message;
    const std::string s = sample.encode();
    EXPECT_EQ(fnv(s), 0x5792d4b37d58964aULL)
        << std::hex << "0x" << fnv(s) << "\n" << s;

    const serve::Response lp = call(log_prob_request());
    ASSERT_TRUE(lp.ok) << lp.error_message;
    const std::string l = lp.encode();
    EXPECT_EQ(fnv(l), 0x282a2a1d65e2f1feULL)
        << std::hex << "0x" << fnv(l) << "\n" << l;

    const std::string req = log_prob_request().encode();
    EXPECT_EQ(fnv(req), 0xa9aa8fbbd4398fddULL)
        << std::hex << "0x" << fnv(req) << "\n" << req;
}

// ---------------------------------------------------------------------------
// format_double / parse_double against the C library
// ---------------------------------------------------------------------------

std::string printf17(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string format(double v) {
    char buf[util::kMaxDoubleChars];
    return std::string(buf, util::format_double(v, buf));
}

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// >= 100,000 raw bit patterns, scaled normals, and the values whose
/// spelling sits on an edge: signed zeros, the denormal and normal limits,
/// the fixed/exponent switch points, and integers up to 2^53.
std::vector<double> parity_values() {
    std::vector<double> values = {0.0,
                                  -0.0,
                                  std::numeric_limits<double>::denorm_min(),
                                  -std::numeric_limits<double>::denorm_min(),
                                  DBL_MIN,
                                  std::nextafter(DBL_MIN, 0.0),
                                  DBL_MAX,
                                  -DBL_MAX,
                                  0.1,
                                  1e21,
                                  1e-7,
                                  1e16,
                                  1e17,
                                  1e-4,
                                  1e-5,
                                  9007199254740992.0,
                                  9007199254740991.0,
                                  std::numeric_limits<double>::infinity(),
                                  -std::numeric_limits<double>::infinity(),
                                  std::numeric_limits<double>::quiet_NaN()};
    for (int i = 0; i <= 2000; ++i) values.push_back(i);
    for (int k = 0; k <= 53; ++k) values.push_back(std::ldexp(1.0, k));
    double p10 = 1.0;
    for (int k = 0; k <= 22; ++k, p10 *= 10.0) values.push_back(p10);
    rng::Engine bits(20261019);
    for (int i = 0; i < 100000; ++i)
        values.push_back(std::bit_cast<double>(bits()));
    for (int i = 0; i < 20000; ++i)
        values.push_back(static_cast<double>(bits() >> 11));  // < 2^53
    for (int i = 0; i < 50000; ++i) {
        const int exp2 = static_cast<int>(bits.uniform_index(80)) - 40;
        values.push_back(std::ldexp(rng::standard_normal(bits), exp2));
    }
    return values;
}

TEST(NumberCodec, FormatMatchesPrintfPercent17g) {
    std::size_t mismatches = 0;
    for (const double v : parity_values()) {
        const std::string got = format(v);
        ASSERT_LE(got.size(), util::kMaxDoubleChars);
        if (got != printf17(v) && ++mismatches <= 5)
            ADD_FAILURE() << got << " != " << printf17(v);
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(NumberCodec, ParseMatchesStrtodBitForBit) {
    std::size_t mismatches = 0;
    for (const double v : parity_values()) {
        if (!std::isfinite(v)) continue;
        // The canonical spelling round-trips exactly.
        const auto back = util::parse_double(format(v));
        if ((!back || !same_bits(*back, v)) && ++mismatches <= 5)
            ADD_FAILURE() << "'" << format(v) << "' does not round-trip";
        for (const char* spec : {"%.17g", "%.9g", "%.3g", "%.20e"}) {
            char text[64];
            std::snprintf(text, sizeof(text), spec, v);
            errno = 0;
            const double want = std::strtod(text, nullptr);
            const bool out_of_range =
                std::isinf(want) || (want == 0.0 && errno == ERANGE);
            const auto got = util::parse_double(text);
            const bool ok = out_of_range ? !got.has_value()
                                         : got && same_bits(*got, want);
            if (!ok && ++mismatches <= 5)
                ADD_FAILURE() << "'" << text << "'";
        }
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(NumberCodec, U64ParsesExactlyOneDecimalInteger) {
    EXPECT_EQ(util::parse_u64("0"), 0u);
    EXPECT_EQ(util::parse_u64("007"), 7u);
    EXPECT_EQ(util::parse_u64("9007199254740993"), 9007199254740993u);
    EXPECT_EQ(util::parse_u64("18446744073709551615"), UINT64_MAX);
    for (const char* bad : {"18446744073709551616", "+1", "-1", "0x10", "1e3",
                            "1.0", "", " 1", "1 "})
        EXPECT_FALSE(util::parse_u64(bad).has_value()) << bad;
}

// ---------------------------------------------------------------------------
// One number policy at every decoder (DESIGN.md §10.3): a token is one
// decimal uint64 or one finite double in from_chars' general syntax. The
// repo never writes any of the rejected spellings.
// ---------------------------------------------------------------------------

void expect_bad_request(const std::string& line) {
    try {
        serve::Request::decode(line);
        ADD_FAILURE() << "decoded: " << line;
    } catch (const serve::ServeError& e) {
        EXPECT_EQ(e.code(), serve::ErrorCode::kBadRequest) << line;
    }
}

std::string log_prob_line(const std::string& value) {
    return R"({"op":"log_prob","model":"m","x":[[)" + value + "]]}";
}

TEST(JsonNumberPolicy, LeadingPlusIsAParseError) {
    EXPECT_THROW(util::Json::parse("+1"), std::runtime_error);
    EXPECT_THROW(util::Json::parse("[1,+2.5]"), std::runtime_error);
    expect_bad_request(log_prob_line("+1"));
    expect_bad_request(R"({"op":"sample","model":"m","seed":+3})");
}

TEST(JsonNumberPolicy, OverflowIsAParseError) {
    EXPECT_THROW(util::Json::parse("1e400"), std::runtime_error);
    EXPECT_THROW(util::Json::parse("[-1e400]"), std::runtime_error);
    EXPECT_THROW(util::Json::parse(std::string(400, '9')), std::runtime_error);
    expect_bad_request(log_prob_line("1e400"));
}

TEST(JsonNumberPolicy, UnderflowToZeroIsAParseError) {
    EXPECT_THROW(util::Json::parse("1e-400"), std::runtime_error);
    EXPECT_THROW(util::Json::parse("[-2e-324]"), std::runtime_error);
    expect_bad_request(log_prob_line("1e-400"));
}

TEST(JsonNumberPolicy, LenientSpellingsStillParseBitForBit) {
    for (const char* text :
         {".5", "5.", "-0", "1E5", "-.25", "0e-400", "4.9406564584124654e-324",
          "2.5e-324", "1e-320", "1.7976931348623157e308",
          "18446744073709551616"}) {
        const util::Json doc = util::Json::parse(text);
        ASSERT_TRUE(doc.is_number()) << text;
        EXPECT_TRUE(same_bits(doc.as_double(), std::strtod(text, nullptr)))
            << text;
    }
    EXPECT_EQ(util::Json::parse("18446744073709551615").as_u64(), UINT64_MAX);
    const auto req = serve::Request::decode(log_prob_line("-0,1E5,.5"));
    EXPECT_TRUE(std::signbit(req.x(0, 0)));
    EXPECT_EQ(req.x(0, 1), 1e5);
    EXPECT_EQ(req.x(0, 2), 0.5);
}

/// A saved small stack whose first parameter token reads `value`.
std::string flow_text_with_first_value(const std::string& value) {
    std::string text =
        saved_text(golden_stack(flow::CouplingKind::kAffine, false, false));
    // Line 4 holds the scale caps and line 5 the parameter count; line 6
    // is "rows cols v0 v1 ...".
    std::size_t pos = 0;
    for (int line = 0; line < 5; ++line) pos = text.find('\n', pos) + 1;
    for (int field = 0; field < 2; ++field) pos = text.find(' ', pos) + 1;
    const std::size_t end = text.find(' ', pos);
    return text.replace(pos, end - pos, value);
}

double first_loaded_value(const std::string& text) {
    std::istringstream is(text);
    return flow::load_stack(is).params().front().value().flat()[0];
}

void expect_flow_error(const std::string& value) {
    try {
        first_loaded_value(flow_text_with_first_value(value));
        ADD_FAILURE() << "loaded '" << value << "'";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("flow serialisation:"),
                  std::string::npos)
            << e.what();
    }
}

TEST(FlowFileNumberPolicy, LeadingPlusIsAnError) {
    expect_flow_error("+1");
    expect_flow_error("+0.25");
}

TEST(FlowFileNumberPolicy, UnderflowToZeroIsAnError) {
    expect_flow_error("1e-400");
    expect_flow_error("-2e-324");
}

TEST(FlowFileNumberPolicy, NonFiniteAndOverflowStayErrors) {
    for (const char* v : {"inf", "-inf", "nan", "1e400", "-1e309", "0x10",
                          "1.5.5", "1e", "-"})
        expect_flow_error(v);
}

TEST(FlowFileNumberPolicy, TokensLongerThan32CharsAreErrors) {
    const std::string at_limit = "0." + std::string(30, '1');
    ASSERT_EQ(at_limit.size(), 32u);
    EXPECT_EQ(first_loaded_value(flow_text_with_first_value(at_limit)),
              std::strtod(at_limit.c_str(), nullptr));
    expect_flow_error(at_limit + "1");
    expect_flow_error(std::string(10000, '7'));
}

TEST(FlowFileNumberPolicy, DenormalsAndNegativeZeroLoadBitForBit) {
    for (const char* v : {"4.9406564584124654e-324", "-2.5e-324", "1e-320",
                          "-0", "0e-400", "1.7976931348623157e+308"}) {
        const double got = first_loaded_value(flow_text_with_first_value(v));
        EXPECT_TRUE(same_bits(got, std::strtod(v, nullptr))) << v;
    }
}

TEST(FlagNumberPolicy, LeadingPlusIsRejected) {
    EXPECT_FALSE(util::parse_double("+1").has_value());
    EXPECT_FALSE(util::parse_double("+0.5").has_value());
    EXPECT_EQ(util::parse_double("-1"), -1.0);
}

TEST(FlagNumberPolicy, HexIsRejected) {
    for (const char* v : {"0x10", "0X1p3", "-0x1.8p1"})
        EXPECT_FALSE(util::parse_double(v).has_value()) << v;
}

TEST(FlagNumberPolicy, DenormalsAreAccepted) {
    EXPECT_EQ(util::parse_double("4.9406564584124654e-324"),
              std::numeric_limits<double>::denorm_min());
    EXPECT_EQ(util::parse_double("-1e-310"), -1e-310);
    EXPECT_FALSE(util::parse_double("1e-400").has_value());
}

// ---------------------------------------------------------------------------
// Seeded mutations of the two rewritten decoders
// ---------------------------------------------------------------------------

constexpr std::uint64_t kMutationSeed = 0x6e6f666973ULL;
constexpr int kMutations = 2000;

/// One mutation of `text`, every choice drawn from `eng`: a byte flip, a
/// truncation, a digit run grown to 10,000 digits, an inserted sign or
/// exponent, or a splice of one stretch of the text into another place.
std::string mutate(std::string text, rng::Engine& eng) {
    const auto at = [&](std::size_t n) {
        return static_cast<std::size_t>(eng.uniform_index(n));
    };
    const std::size_t n = text.size();
    switch (at(6)) {
        case 0:
            text[at(n)] ^= static_cast<char>(1u << at(8));
            break;
        case 1:
            text.resize(at(n));
            break;
        case 2: {
            std::size_t pos = at(n);
            while (pos < n &&
                   !std::isdigit(static_cast<unsigned char>(text[pos])))
                ++pos;
            if (pos == n) pos = text.find_first_of("0123456789");
            text.insert(pos, 9999, text[pos]);
            break;
        }
        case 3:
            text.insert(at(n + 1), 1, "+-"[at(2)]);
            break;
        case 4: {
            static const char* const exps[] = {"e", "E", "e+", "e-", "e400",
                                               "e-400", "e308", "e-330", "E5"};
            text.insert(at(n + 1), exps[at(std::size(exps))]);
            break;
        }
        default: {
            const std::size_t from = at(n);
            const std::size_t len = 1 + at(std::min<std::size_t>(40, n - from));
            const std::string piece = text.substr(from, len);
            const std::size_t to = at(n + 1);
            if (at(2) == 0)
                text.insert(to, piece);
            else
                text.replace(to, std::min(len, n - to), piece);
            break;
        }
    }
    return text;
}

TEST(CodecMutation, FlowFileMutationsLoadOrFailStructurally) {
    auto stack = golden_stack(flow::CouplingKind::kAffine, true, false);
    // Unequal per-layer caps, as a stage rollback leaves them.
    stack.tighten_scale_cap(1, 0.7);
    const std::string text = saved_text(stack);
    // The caps line is the fourth.
    std::size_t caps_begin = 0;
    for (int line = 0; line < 3; ++line)
        caps_begin = text.find('\n', caps_begin) + 1;
    const std::size_t caps_end = text.find('\n', caps_begin);
    int loaded = 0;
    int rejected = 0;
    int caps_mutated = 0;
    for (int i = 0; i < kMutations; ++i) {
        rng::Engine eng = rng::substream(kMutationSeed, i);
        const std::string input = mutate(text, eng);
        const auto first_change = static_cast<std::size_t>(
            std::mismatch(text.begin(), text.end(), input.begin(),
                          input.end())
                .first -
            text.begin());
        if (first_change >= caps_begin && first_change <= caps_end)
            ++caps_mutated;
        try {
            std::istringstream is(input);
            const std::string again = saved_text(flow::load_stack(is));
            std::istringstream reread(again);
            EXPECT_EQ(saved_text(flow::load_stack(reread)), again)
                << "mutation " << i;
            ++loaded;
        } catch (const std::runtime_error& e) {
            EXPECT_EQ(std::string(e.what()).rfind("flow serialisation: ", 0),
                      0u)
                << "mutation " << i << ": " << e.what();
            ++rejected;
        } catch (const std::exception& e) {
            ADD_FAILURE() << "mutation " << i << " escaped as " << e.what();
        }
    }
    EXPECT_GT(loaded, 0);
    EXPECT_GT(rejected, 0);
    EXPECT_GT(caps_mutated, 0);
}

TEST_F(CodecServe, WireMutationsDecodeOrFailStructurally) {
    const std::string requests[] = {sample_request().encode(),
                                    log_prob_request().encode()};
    const std::string responses[] = {call(sample_request()).encode(),
                                     call(log_prob_request()).encode()};
    int decoded = 0;
    int rejected = 0;
    for (int i = 0; i < kMutations; ++i) {
        for (const std::string& line : requests) {
            rng::Engine eng = rng::substream(kMutationSeed + 1, i);
            const std::string input = mutate(line, eng);
            try {
                const std::string again =
                    serve::Request::decode(input).encode();
                EXPECT_EQ(serve::Request::decode(again).encode(), again)
                    << "request mutation " << i;
                ++decoded;
            } catch (const serve::ServeError& e) {
                EXPECT_EQ(e.code(), serve::ErrorCode::kBadRequest)
                    << "request mutation " << i;
                ++rejected;
            } catch (const std::exception& e) {
                ADD_FAILURE() << "request mutation " << i << " escaped as "
                              << e.what();
            }
        }
        for (const std::string& line : responses) {
            rng::Engine eng = rng::substream(kMutationSeed + 2, i);
            const std::string input = mutate(line, eng);
            try {
                const std::string again =
                    serve::Response::decode(input).encode();
                EXPECT_EQ(serve::Response::decode(again).encode(), again)
                    << "response mutation " << i;
                ++decoded;
            } catch (const std::runtime_error&) {
                ++rejected;
            } catch (const std::exception& e) {
                ADD_FAILURE() << "response mutation " << i << " escaped as "
                              << e.what();
            }
        }
    }
    EXPECT_GT(decoded, 0);
    EXPECT_GT(rejected, 0);
}

}  // namespace
