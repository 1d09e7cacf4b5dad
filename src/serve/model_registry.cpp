#include "serve/model_registry.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "flow/serialize.hpp"
#include "telemetry/telemetry.hpp"

namespace nofis::serve {

namespace {
constexpr const char* kSuffix = ".nofisflow";

/// A path component that names one file: no separators, no leading dot,
/// and no control bytes, since a NUL would end the path the filesystem
/// sees before the suffix.
bool valid_name(const std::string& name) {
    if (name.empty() || name.front() == '.') return false;
    return std::none_of(name.begin(), name.end(), [](char c) {
        return c == '/' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
    });
}
}  // namespace

ModelRegistry::ModelRegistry(std::string dir) : dir_(std::move(dir)) {}

std::string ModelRegistry::path_for(const std::string& name) const {
    if (!valid_name(name))
        throw ServeError(ErrorCode::kBadRequest,
                         "invalid model name '" + name + "'");
    return dir_ + "/" + name + kSuffix;
}

std::shared_ptr<const Model> ModelRegistry::load_locked(
    const std::string& name) {
    const std::string path = path_for(name);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec))
        throw ServeError(ErrorCode::kUnknownModel,
                         "no model '" + name + "' in " + dir_);
    auto model = std::make_shared<const Model>(name, flow::load_stack(path));
    telemetry::count("serve.registry.loads");
    return model;
}

std::shared_ptr<const Model> ModelRegistry::get(const std::string& name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = models_.find(name);
    if (it != models_.end()) return it->second;
    auto model = load_locked(name);
    models_.emplace(name, model);
    return model;
}

std::shared_ptr<const Model> ModelRegistry::reload(const std::string& name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto model = load_locked(name);
    models_[name] = model;
    return model;
}

bool ModelRegistry::evict(const std::string& name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return models_.erase(name) > 0;
}

std::vector<std::string> ModelRegistry::available() const {
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
        const std::string file = entry.path().filename().string();
        if (file.size() <= std::strlen(kSuffix)) continue;
        if (file.substr(file.size() - std::strlen(kSuffix)) != kSuffix)
            continue;
        const std::string name =
            file.substr(0, file.size() - std::strlen(kSuffix));
        if (valid_name(name)) names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    return names;
}

std::vector<std::string> ModelRegistry::resident() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    names.reserve(models_.size());
    for (const auto& [name, model] : models_) names.push_back(name);
    return names;
}

}  // namespace nofis::serve
