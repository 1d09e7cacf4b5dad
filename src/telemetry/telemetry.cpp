#include "telemetry/telemetry.hpp"

#include "util/json.hpp"

namespace nofis::telemetry {

namespace detail {
std::atomic<RunTrace*> g_active{nullptr};
}  // namespace detail

SpanNode& SpanNode::find_or_add(std::string_view child_name) {
    for (auto& c : children)
        if (c->name == child_name) return *c;
    children.push_back(std::make_unique<SpanNode>());
    children.back()->name = std::string(child_name);
    return *children.back();
}

const SpanNode* SpanNode::find(std::string_view child_name) const noexcept {
    for (const auto& c : children)
        if (c->name == child_name) return c.get();
    return nullptr;
}

RunTrace::RunTrace() : owner_(std::this_thread::get_id()) {
    root_.name = "run";
}

void RunTrace::add_counter(std::string_view name, std::uint64_t delta) {
    std::lock_guard lock(mutex_);
    const auto it = counters_.find(name);
    if (it != counters_.end())
        it->second += delta;
    else
        counters_.emplace(std::string(name), delta);
}

std::uint64_t RunTrace::counter(std::string_view name) const {
    std::lock_guard lock(mutex_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

std::map<std::string, std::uint64_t> RunTrace::counters() const {
    std::lock_guard lock(mutex_);
    return {counters_.begin(), counters_.end()};
}

void RunTrace::set_metric(std::string_view name, double value) {
    std::lock_guard lock(mutex_);
    const auto it = metrics_.find(name);
    if (it != metrics_.end())
        it->second = value;
    else
        metrics_.emplace(std::string(name), value);
}

double RunTrace::metric(std::string_view name, double fallback) const {
    std::lock_guard lock(mutex_);
    const auto it = metrics_.find(name);
    return it == metrics_.end() ? fallback : it->second;
}

bool RunTrace::has_metric(std::string_view name) const {
    std::lock_guard lock(mutex_);
    return metrics_.find(name) != metrics_.end();
}

std::map<std::string, double> RunTrace::metrics() const {
    std::lock_guard lock(mutex_);
    return {metrics_.begin(), metrics_.end()};
}

void set_active(RunTrace* trace) noexcept {
    if (trace != nullptr) {
        trace->owner_.store(std::this_thread::get_id(),
                            std::memory_order_relaxed);
        trace->current_ = &trace->root_;
    }
    detail::g_active.store(trace, std::memory_order_relaxed);
}

void adopt_span_tree() noexcept {
    RunTrace* trace = active();
    const std::thread::id self = std::this_thread::get_id();
    if (trace == nullptr ||
        trace->owner_.load(std::memory_order_relaxed) == self)
        return;
    trace->owner_.store(self, std::memory_order_relaxed);
    trace->current_ = &trace->root_;
}

ScopedSpan::ScopedSpan(std::string_view name) {
    RunTrace* tr = active();
    if (tr == nullptr || tr->owner_.load(std::memory_order_relaxed) !=
                             std::this_thread::get_id())
        return;
    trace_ = tr;
    parent_ = tr->current_;
    node_ = &parent_->find_or_add(name);
    tr->current_ = node_;
    t0_ = std::chrono::steady_clock::now();
}

ScopedSpan::~ScopedSpan() {
    if (trace_ == nullptr) return;
    const auto dt = std::chrono::steady_clock::now() - t0_;
    node_->wall_ms +=
        std::chrono::duration<double, std::milli>(dt).count();
    ++node_->count;
    // Unwind even if scopes were torn down out of order by an exception
    // propagating through several spans at once.
    if (trace_->current_ == node_) trace_->current_ = parent_;
}

namespace {

using util::Json;

Json span_json(const SpanNode& node) {
    Json j = Json::object();
    j.set("name", Json::string(node.name));
    j.set("wall_ms", Json::number(node.wall_ms));
    j.set("count", Json::number_u64(node.count));
    if (!node.children.empty()) {
        Json children = Json::array();
        for (const auto& c : node.children) children.push_back(span_json(*c));
        j.set("children", std::move(children));
    }
    return j;
}

}  // namespace

std::string RunTrace::to_json() const {
    Json counters = Json::object();
    Json metrics = Json::object();
    {
        std::lock_guard lock(mutex_);
        for (const auto& [name, value] : counters_)
            counters.set(name, Json::number_u64(value));
        for (const auto& [name, value] : metrics_)
            metrics.set(name, Json::number(value));
    }
    Json doc = Json::object();
    doc.set("schema", Json::string("nofis-metrics-v1"));
    doc.set("spans", span_json(root_));
    doc.set("counters", std::move(counters));
    doc.set("metrics", std::move(metrics));
    return doc.encode();
}

}  // namespace nofis::telemetry
