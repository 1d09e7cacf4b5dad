#include "serve/protocol.hpp"

namespace nofis::serve {

// ---------------------------------------------------------------------------
// Requests / responses
// ---------------------------------------------------------------------------

std::string_view error_code_name(ErrorCode code) noexcept {
    switch (code) {
        case ErrorCode::kBadRequest: return "bad_request";
        case ErrorCode::kUnknownModel: return "unknown_model";
        case ErrorCode::kUnknownCase: return "unknown_case";
        case ErrorCode::kDimMismatch: return "dim_mismatch";
        case ErrorCode::kQueueFull: return "queue_full";
        case ErrorCode::kDeadlineExceeded: return "deadline_exceeded";
        case ErrorCode::kShuttingDown: return "shutting_down";
        case ErrorCode::kInternal: return "internal";
    }
    return "internal";
}

std::string_view op_name(Op op) noexcept {
    switch (op) {
        case Op::kSample: return "sample";
        case Op::kLogProb: return "log_prob";
        case Op::kEstimate: return "estimate";
        case Op::kInfo: return "info";
        case Op::kListModels: return "list_models";
        case Op::kReload: return "reload";
        case Op::kEvict: return "evict";
        case Op::kPing: return "ping";
        case Op::kShutdown: return "shutdown";
    }
    return "ping";
}

namespace {

[[noreturn]] void bad_request(const std::string& what) {
    throw ServeError(ErrorCode::kBadRequest, what);
}

Op parse_op(const std::string& name) {
    for (Op op : {Op::kSample, Op::kLogProb, Op::kEstimate, Op::kInfo,
                  Op::kListModels, Op::kReload, Op::kEvict, Op::kPing,
                  Op::kShutdown})
        if (op_name(op) == name) return op;
    bad_request("unknown op '" + name + "'");
}

std::uint64_t u64_field(const Json& obj, std::string_view key,
                        std::uint64_t fallback) {
    const Json* v = obj.find(key);
    if (!v) return fallback;
    try {
        return v->as_u64();
    } catch (const std::exception&) {
        bad_request("field '" + std::string(key) +
                    "' must be an unsigned integer");
    }
}

bool needs_model(Op op) {
    switch (op) {
        case Op::kSample:
        case Op::kLogProb:
        case Op::kEstimate:
        case Op::kInfo:
        case Op::kReload:
        case Op::kEvict:
            return true;
        default:
            return false;
    }
}

}  // namespace

Request Request::decode(std::string_view line) {
    Json doc;
    try {
        doc = Json::parse(line);
    } catch (const std::exception& e) {
        bad_request(e.what());
    }
    if (!doc.is_object()) bad_request("request must be a JSON object");

    Request req;
    req.id = u64_field(doc, "id", 0);
    const Json* op = doc.find("op");
    if (!op || !op->is_string()) bad_request("missing string field 'op'");
    req.op = parse_op(op->as_string());

    if (const Json* m = doc.find("model")) {
        if (!m->is_string()) bad_request("field 'model' must be a string");
        req.model = m->as_string();
    }
    if (needs_model(req.op) && req.model.empty())
        bad_request(std::string(op_name(req.op)) +
                    " requires a 'model' field");

    req.seed = u64_field(doc, "seed", 0);
    req.timeout_us = u64_field(doc, "timeout_us", 0);
    const std::uint64_t n =
        u64_field(doc, "n", req.op == Op::kSample ? 1 : 1000);
    if (req.op == Op::kSample || req.op == Op::kEstimate) {
        if (n == 0) bad_request("'n' must be positive");
        if (n > kMaxRequestRows)
            bad_request("'n' must be at most " +
                        std::to_string(kMaxRequestRows));
    }
    req.n = static_cast<std::size_t>(n);

    if (req.op == Op::kEstimate) {
        const Json* c = doc.find("case");
        if (!c || !c->is_string())
            bad_request("estimate requires a string field 'case'");
        req.case_name = c->as_string();
    }

    if (req.op == Op::kLogProb) {
        const Json* x = doc.find("x");
        if (!x || !x->is_array() || x->size() == 0)
            bad_request("log_prob requires a non-empty array field 'x'");
        if (x->size() > kMaxRequestRows)
            bad_request("'x' must have at most " +
                        std::to_string(kMaxRequestRows) + " rows");
        const Json& first = x->at(0);
        if (!first.is_array() || first.size() == 0)
            bad_request("'x' must be an array of non-empty rows");
        const std::size_t cols = first.size();
        req.x = linalg::Matrix(x->size(), cols);
        for (std::size_t r = 0; r < x->size(); ++r) {
            const Json& row = x->at(r);
            if (!row.is_array() || row.size() != cols)
                bad_request("'x' rows must all have the same length");
            for (std::size_t c = 0; c < cols; ++c) {
                const Json& cell = row.at(c);
                if (!cell.is_number())
                    bad_request("'x' entries must be numbers");
                req.x(r, c) = cell.as_double();
            }
        }
    }
    return req;
}

std::string Request::encode() const {
    Json doc = Json::object();
    doc.set("id", Json::number_u64(id));
    doc.set("op", Json::string(std::string(op_name(op))));
    if (!model.empty()) doc.set("model", Json::string(model));
    switch (op) {
        case Op::kSample:
            doc.set("seed", Json::number_u64(seed));
            doc.set("n", Json::number_u64(n));
            break;
        case Op::kEstimate:
            doc.set("case", Json::string(case_name));
            doc.set("seed", Json::number_u64(seed));
            doc.set("n", Json::number_u64(n));
            break;
        case Op::kLogProb: {
            Json rows = Json::array();
            for (std::size_t r = 0; r < x.rows(); ++r) {
                Json row = Json::array();
                for (double v : x.row_span(r)) row.push_back(Json::number(v));
                rows.push_back(std::move(row));
            }
            doc.set("x", std::move(rows));
            break;
        }
        default:
            break;
    }
    if (timeout_us > 0) doc.set("timeout_us", Json::number_u64(timeout_us));
    return doc.encode();
}

Response Response::success(const Request& req, Json result) {
    Response res;
    res.id = req.id;
    res.op = req.op;
    res.ok = true;
    res.result = std::move(result);
    return res;
}

Response Response::failure(const Request& req, ErrorCode code,
                           std::string message) {
    Response res;
    res.id = req.id;
    res.op = req.op;
    res.ok = false;
    res.error_code = code;
    res.error_message = std::move(message);
    return res;
}

Response Response::failure(const Request& req, const ServeError& err) {
    return failure(req, err.code(), err.what());
}

std::string Response::encode() const {
    Json doc = Json::object();
    doc.set("id", Json::number_u64(id));
    doc.set("op", Json::string(std::string(op_name(op))));
    doc.set("ok", Json::boolean(ok));
    if (ok) {
        doc.set("result", result);
    } else {
        Json err = Json::object();
        err.set("code",
                Json::string(std::string(error_code_name(error_code))));
        err.set("message", Json::string(error_message));
        doc.set("error", std::move(err));
    }
    return doc.encode();
}

Response Response::decode(std::string_view line) {
    Json doc = Json::parse(line);
    if (!doc.is_object())
        throw std::runtime_error("response must be a JSON object");
    Response res;
    if (const Json* id = doc.find("id")) res.id = id->as_u64();
    if (const Json* op = doc.find("op")) res.op = parse_op(op->as_string());
    const Json* ok = doc.find("ok");
    if (!ok || !ok->is_bool())
        throw std::runtime_error("response missing bool field 'ok'");
    res.ok = ok->as_bool();
    if (res.ok) {
        if (const Json* r = doc.find("result")) res.result = *r;
    } else {
        const Json* err = doc.find("error");
        if (err && err->is_object()) {
            if (const Json* m = err->find("message"))
                res.error_message = m->as_string();
            if (const Json* c = err->find("code")) {
                for (ErrorCode code :
                     {ErrorCode::kBadRequest, ErrorCode::kUnknownModel,
                      ErrorCode::kUnknownCase, ErrorCode::kDimMismatch,
                      ErrorCode::kQueueFull, ErrorCode::kDeadlineExceeded,
                      ErrorCode::kShuttingDown, ErrorCode::kInternal})
                    if (error_code_name(code) == c->as_string())
                        res.error_code = code;
            }
        }
    }
    return res;
}

}  // namespace nofis::serve
