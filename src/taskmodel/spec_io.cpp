#include "taskmodel/spec_io.h"

#include <cmath>
#include <string>

namespace tprm::task {

JsonValue toJsonValue(const TunableJobSpec& spec) {
  JsonValue::Array chains;
  for (const auto& chain : spec.chains) {
    JsonValue::Array tasks;
    for (const auto& t : chain.tasks) {
      JsonValue::Object task;
      task["name"] = t.name;
      task["processors"] = t.request.processors;
      task["duration"] = unitsFromTicks(t.request.duration);
      if (t.relativeDeadline < kTimeInfinity) {
        task["deadline"] = unitsFromTicks(t.relativeDeadline);
      }
      if (t.quality != 1.0) task["quality"] = t.quality;
      if (t.malleable) task["maxConcurrency"] = t.malleable->maxConcurrency;
      tasks.emplace_back(std::move(task));
    }
    JsonValue::Object chainObject;
    chainObject["name"] = chain.name;
    if (!chain.bindings.empty()) {
      JsonValue::Object bindings;
      for (const auto& [param, value] : chain.bindings) {
        bindings[param] = value;
      }
      chainObject["bindings"] = std::move(bindings);
    }
    chainObject["tasks"] = std::move(tasks);
    chains.emplace_back(std::move(chainObject));
  }
  JsonValue::Object root;
  root["name"] = spec.name;
  if (spec.qualityComposition == QualityComposition::Minimum) {
    root["qualityComposition"] = "minimum";
  } else {
    root["qualityComposition"] = "multiplicative";
  }
  root["chains"] = std::move(chains);
  return JsonValue(std::move(root));
}

std::string toJson(const TunableJobSpec& spec) {
  return toJsonValue(spec).dump();
}

namespace {

/// Error accumulator for descriptive parse failures.
class SpecReader {
 public:
  SpecParseResult read(const std::string& text) {
    const auto parsed = parseJson(text);
    if (!parsed.ok()) {
      return fail("JSON error at byte " + std::to_string(parsed.errorOffset) +
                  ": " + parsed.error);
    }
    return readValue(*parsed.value);
  }

  SpecParseResult readValue(const JsonValue& root) {
    if (!root.isObject()) return fail("top level must be an object");

    TunableJobSpec spec;
    if (const auto* name = root.find("name")) {
      if (!name->isString()) return fail("'name' must be a string");
      spec.name = name->asString();
    }
    if (const auto* comp = root.find("qualityComposition")) {
      if (!comp->isString()) {
        return fail("'qualityComposition' must be a string");
      }
      const auto& value = comp->asString();
      if (value == "minimum") {
        spec.qualityComposition = QualityComposition::Minimum;
      } else if (value == "multiplicative") {
        spec.qualityComposition = QualityComposition::Multiplicative;
      } else {
        return fail("unknown qualityComposition '" + value + "'");
      }
    }
    const auto* chains = root.find("chains");
    if (chains == nullptr || !chains->isArray()) {
      return fail("'chains' must be an array");
    }
    for (std::size_t c = 0; c < chains->asArray().size(); ++c) {
      auto chain = readChain(chains->asArray()[c], c);
      if (!chain) return fail(error_);
      spec.chains.push_back(std::move(*chain));
    }

    const auto errors = validate(spec);
    if (!errors.empty()) return fail("invalid spec: " + errors.front());
    SpecParseResult result;
    result.spec = std::move(spec);
    return result;
  }

 private:
  SpecParseResult fail(const std::string& what) {
    SpecParseResult result;
    result.error = what;
    return result;
  }

  // The location prefixes are formatted only when a check fails.
  std::optional<Chain> readChain(const JsonValue& value, std::size_t index) {
    const auto where = [index] {
      return "chains[" + std::to_string(index) + "]";
    };
    if (!value.isObject()) {
      error_ = where() + " must be an object";
      return std::nullopt;
    }
    Chain chain;
    if (const auto* name = value.find("name")) {
      if (!name->isString()) {
        error_ = where() + ".name must be a string";
        return std::nullopt;
      }
      chain.name = name->asString();
    }
    if (const auto* bindings = value.find("bindings")) {
      if (!bindings->isObject()) {
        error_ = where() + ".bindings must be an object";
        return std::nullopt;
      }
      for (const auto& [param, bound] : bindings->asObject()) {
        if (!bound.isNumber() ||
            bound.asNumber() != std::floor(bound.asNumber())) {
          error_ = where() + ".bindings." + param + " must be an integer";
          return std::nullopt;
        }
        chain.bindings[param] = static_cast<std::int64_t>(bound.asNumber());
      }
    }
    const auto* tasks = value.find("tasks");
    if (tasks == nullptr || !tasks->isArray()) {
      error_ = where() + ".tasks must be an array";
      return std::nullopt;
    }
    for (std::size_t k = 0; k < tasks->asArray().size(); ++k) {
      auto task = readTask(tasks->asArray()[k], index, k);
      if (!task) return std::nullopt;
      chain.tasks.push_back(std::move(*task));
    }
    return chain;
  }

  std::optional<TaskSpec> readTask(const JsonValue& value,
                                   std::size_t chainIndex, std::size_t index) {
    const auto where = [chainIndex, index] {
      return "chains[" + std::to_string(chainIndex) + "].tasks[" +
             std::to_string(index) + "]";
    };
    if (!value.isObject()) {
      error_ = where() + " must be an object";
      return std::nullopt;
    }
    TaskSpec task;
    if (const auto* name = value.find("name")) {
      if (!name->isString()) {
        error_ = where() + ".name must be a string";
        return std::nullopt;
      }
      task.name = name->asString();
    }
    const auto* processors = value.find("processors");
    if (processors == nullptr || !processors->isNumber()) {
      error_ = where() + ".processors must be a number";
      return std::nullopt;
    }
    task.request.processors = static_cast<int>(processors->asNumber());
    const auto* duration = value.find("duration");
    if (duration == nullptr || !duration->isNumber()) {
      error_ = where() + ".duration must be a number";
      return std::nullopt;
    }
    if (duration->asNumber() <= 0.0) {
      error_ = where() + ".duration must be positive";
      return std::nullopt;
    }
    task.request.duration = ticksFromUnits(duration->asNumber());
    if (const auto* deadline = value.find("deadline")) {
      if (!deadline->isNumber()) {
        error_ = where() + ".deadline must be a number";
        return std::nullopt;
      }
      task.relativeDeadline = ticksFromUnits(deadline->asNumber());
    }
    if (const auto* quality = value.find("quality")) {
      if (!quality->isNumber()) {
        error_ = where() + ".quality must be a number";
        return std::nullopt;
      }
      task.quality = quality->asNumber();
    }
    if (const auto* maxConc = value.find("maxConcurrency")) {
      if (!maxConc->isNumber()) {
        error_ = where() + ".maxConcurrency must be a number";
        return std::nullopt;
      }
      task.malleable = MalleableSpec{task.request.area(),
                                     static_cast<int>(maxConc->asNumber())};
    }
    return task;
  }

  std::string error_;
};

}  // namespace

SpecParseResult jobSpecFromJson(const std::string& text) {
  return SpecReader().read(text);
}

SpecParseResult jobSpecFromJsonValue(const JsonValue& root) {
  return SpecReader().readValue(root);
}

}  // namespace tprm::task
