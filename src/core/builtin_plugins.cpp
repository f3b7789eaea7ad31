#include "core/builtin_plugins.hpp"

#include <cctype>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/clock.hpp"
#include "common/log.hpp"
#include "core/emit_stage.hpp"
#include "core/server.hpp"
#include "h5lite/h5lite.hpp"
#include "storage/backend.hpp"
#include "storage/write_behind.hpp"

namespace dedicore::core {

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

namespace {

struct Registry {
  /// Leaf lock: registration/lookup are self-contained critical sections.
  Mutex mutex{"plugin.registry"};
  std::map<std::string, PluginFactory> factories DEDICORE_GUARDED_BY(mutex);
};

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace

void register_plugin(const std::string& name, PluginFactory factory) {
  Registry& r = registry();
  MutexLock lock(r.mutex);
  if (r.factories.contains(name))
    throw ConfigError("plugin '" + name + "' already registered");
  r.factories.emplace(name, std::move(factory));
}

std::unique_ptr<Plugin> make_plugin(
    const std::string& name, const std::map<std::string, std::string>& params) {
  register_builtin_plugins();
  Registry& r = registry();
  PluginFactory factory;
  {
    MutexLock lock(r.mutex);
    auto it = r.factories.find(name);
    if (it == r.factories.end())
      throw ConfigError("unknown plugin '" + name + "'");
    factory = it->second;
  }
  // Invoked unlocked: a factory may itself call make_plugin (a wrapper
  // plugin delegating to a built-in one).
  return factory(params);
}

bool plugin_registered(const std::string& name) {
  register_builtin_plugins();
  Registry& r = registry();
  MutexLock lock(r.mutex);
  return r.factories.contains(name);
}

void register_builtin_plugins() {
  static const bool once = [] {
    register_plugin("store", [](const auto& params) {
      return std::make_unique<StorePlugin>(params);
    });
    register_plugin("stats", [](const auto& params) {
      return std::make_unique<StatsPlugin>(params);
    });
    register_plugin("script", [](const auto& params) {
      return std::make_unique<ScriptPlugin>(params);
    });
    register_plugin("vislite", [](const auto& params) {
      return std::make_unique<VisLitePlugin>(params);
    });
    return true;
  }();
  (void)once;
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

std::vector<double> block_as_doubles(const PluginContext& context,
                                     const BlockInfo& block) {
  const VariableSpec& var = context.node.config.variable(block.variable);
  const LayoutSpec& layout = context.node.config.layout_of(var);
  const auto view = context.block_view(block.block);
  std::vector<double> out;
  if (layout.dtype == h5lite::DType::kFloat64) {
    out.resize(view.size() / sizeof(double));
    std::memcpy(out.data(), view.data(), out.size() * sizeof(double));
  } else if (layout.dtype == h5lite::DType::kFloat32) {
    std::vector<float> tmp(view.size() / sizeof(float));
    std::memcpy(tmp.data(), view.data(), tmp.size() * sizeof(float));
    out.assign(tmp.begin(), tmp.end());
  } else {
    throw ConfigError("plugin: variable '" + var.name +
                      "' is not a floating-point field");
  }
  return out;
}

// ---------------------------------------------------------------------------
// StorePlugin
// ---------------------------------------------------------------------------

StorePlugin::StorePlugin(const std::map<std::string, std::string>& params) {
  if (auto it = params.find("codec"); it != params.end()) codec_override_ = it->second;
  if (auto it = params.find("basename"); it != params.end())
    basename_override_ = it->second;
}

void StorePlugin::run(PluginContext& context) {
  NodeRuntime& node = context.node;
  DEDICORE_CHECK(node.storage != nullptr,
                 "store plugin requires a storage backend");
  DEDICORE_CHECK(node.emit != nullptr,
                 "store plugin requires the emit-path transform stage");
  auto& index = *node.indexes[static_cast<std::size_t>(context.server_index)];
  EmitStage& emit = *node.emit;

  const std::string basename =
      basename_override_.empty() ? node.config.storage().basename
                                 : basename_override_;

  // Aggregate every stored variable's blocks into one file image, each
  // dataset flowing through the emit-path transform stage (per-variable
  // codec resolution + the adaptive store-raw decision) on this dedicated
  // core — compression happens *before* the image reaches the
  // write-behind queue, so the byte budget sees post-codec bytes.
  h5lite::FileBuilder builder;
  builder.set_attribute(h5lite::FileBuilder::kRoot, "simulation",
                        node.config.simulation_name());
  builder.set_attribute(h5lite::FileBuilder::kRoot, "iteration",
                        static_cast<std::int64_t>(context.iteration));
  builder.set_attribute(h5lite::FileBuilder::kRoot, "node",
                        static_cast<std::int64_t>(node.node_id));

  std::uint64_t raw_bytes = 0;
  std::uint64_t emit_stored_bytes = 0;
  std::uint64_t datasets_compressed = 0;
  std::uint64_t datasets_stored_raw = 0;
  double compress_seconds = 0.0;
  bool any = false;
  for (const VariableSpec& var : node.config.variables()) {
    if (!var.store) continue;
    const auto blocks = index.blocks_of(var.id, context.iteration);
    if (blocks.empty()) continue;
    any = true;
    const LayoutSpec& layout = node.config.layout_of(var);
    const compress::CodecId requested =
        emit.resolve_codec(var, codec_override_);
    // One adaptive decision per (variable, firing), sampled on the first
    // block; EmitStage caches it across firings and re-probes periodically.
    compress::CodecId planned = compress::CodecId::kNone;
    bool planned_known = false;
    const auto group = builder.create_group(h5lite::FileBuilder::kRoot, var.name);
    builder.set_attribute(group, "layout", layout.name);
    builder.set_attribute(group, "dtype", std::string(h5lite::dtype_name(layout.dtype)));
    for (const BlockInfo& block : blocks) {
      const auto view = context.block_view(block.block);
      if (!planned_known) {
        planned = emit.plan(var, requested, view);
        builder.set_attribute(group, "codec",
                              std::string(compress::codec_name(planned)));
        planned_known = true;
      }
      const std::string dataset_name =
          "r" + std::to_string(block.source) + "_b" + std::to_string(block.block_id);
      const EmitStage::Emitted emitted = emit.emit_dataset(
          builder, group, dataset_name, layout, view, planned);
      raw_bytes += emitted.raw_bytes;
      emit_stored_bytes += emitted.stored_bytes;
      compress_seconds += emitted.seconds;
      if (emitted.compressed) {
        ++datasets_compressed;
      } else {
        ++datasets_stored_raw;
      }
    }
  }
  if (!any) return;  // every client skipped this iteration

  if (context.stats != nullptr) {
    // Serialized per server by the pipeline mutex; the async drain
    // callbacks touch disjoint ServerStats fields.
    context.stats->emit_raw_bytes += raw_bytes;
    context.stats->emit_stored_bytes += emit_stored_bytes;
    context.stats->datasets_compressed += datasets_compressed;
    context.stats->datasets_stored_raw += datasets_stored_raw;
    context.stats->compress_seconds += compress_seconds;
  }

  std::vector<std::byte> image = std::move(builder).finalize();
  const std::string path = basename + "/node" + std::to_string(node.node_id) +
                           "_s" + std::to_string(context.server_index) +
                           "_it" + std::to_string(context.iteration) + ".h5l";

  Stopwatch wait;
  ScheduleGuard guard(*node.scheduler, node.node_id);
  const double waited = wait.elapsed_seconds();

  const std::uint64_t image_bytes = image.size();
  Stopwatch io;
  if (node.write_behind != nullptr) {
    // Async emit: hand the image to the write-behind queue and return, so
    // iteration completion (and the block release that returns credit to
    // clients) never waits on the disk.  A full queue blocks here — the
    // pipeline stall *is* the backpressure path.  Durability is counted
    // at *drain* time through the completion hook: an enqueued image a
    // full disk later rejects must not show up as a file written.
    storage::WriteBehind::Job job;
    job.path = path;
    job.stripe_count = node.config.storage().stripe_count;
    job.image = std::move(image);
    ServerStats* server_stats = context.stats;  // outlives the final drain
    job.on_complete = [this, server_stats, image_bytes](const Status& st) {
      MutexLock lock(mutex_);
      if (!st.is_ok()) {
        ++totals_.failed_writes;
        // Make the drop visible to whoever reads the run's stats: a
        // non-zero storage_failures says "completed but not fully
        // persisted".  (The queue already logged the Status.)
        if (server_stats != nullptr) ++server_stats->storage_failures;
        return;
      }
      ++totals_.files;
      totals_.stored_bytes += image_bytes;
      if (server_stats != nullptr) {
        server_stats->bytes_written += image_bytes;
        ++server_stats->files_written;
      }
    };
    node.write_behind->enqueue(std::move(job));
  } else {
    const Status st = storage::write_image(
        *node.storage, path, image, node.config.storage().stripe_count);
    if (!st.is_ok())
      DEDICORE_LOG(kError) << "store plugin: " << st.to_string();
    DEDICORE_CHECK(st.is_ok(), "store plugin: storage write failed (see log)");
  }
  const double io_seconds = io.elapsed_seconds();

  const bool persisted_inline = node.write_behind == nullptr;
  {
    MutexLock lock(mutex_);
    totals_.raw_bytes += raw_bytes;
    totals_.write_seconds += io_seconds;
    totals_.schedule_wait_seconds += waited;
    if (persisted_inline) {
      ++totals_.files;
      totals_.stored_bytes += image_bytes;
    }
  }
  if (persisted_inline && context.stats != nullptr) {
    context.stats->bytes_written += image_bytes;
    ++context.stats->files_written;
  }
}

StorePlugin::Totals StorePlugin::totals() const {
  MutexLock lock(mutex_);
  return totals_;
}

// ---------------------------------------------------------------------------
// StatsPlugin
// ---------------------------------------------------------------------------

void StatsPlugin::run(PluginContext& context) {
  NodeRuntime& node = context.node;
  auto& index = *node.indexes[static_cast<std::size_t>(context.server_index)];
  Entry entry;
  entry.iteration = context.iteration;
  for (const VariableSpec& var : node.config.variables()) {
    const auto blocks = index.blocks_of(var.id, context.iteration);
    if (blocks.empty()) continue;
    const LayoutSpec& layout = node.config.layout_of(var);
    if (layout.dtype != h5lite::DType::kFloat32 &&
        layout.dtype != h5lite::DType::kFloat64)
      continue;  // stats only for floating-point fields
    std::vector<double> all;
    for (const BlockInfo& block : blocks) {
      auto values = block_as_doubles(context, block);
      all.insert(all.end(), values.begin(), values.end());
    }
    entry.per_variable[var.name] = viz::compute_statistics(all);
  }
  MutexLock lock(mutex_);
  history_.push_back(std::move(entry));
  if (history_.size() > 16) history_.erase(history_.begin());
}

StatsPlugin::Entry StatsPlugin::latest() const {
  MutexLock lock(mutex_);
  return history_.empty() ? Entry{} : history_.back();
}

std::vector<StatsPlugin::Entry> StatsPlugin::history() const {
  MutexLock lock(mutex_);
  return history_;
}

// ---------------------------------------------------------------------------
// ScriptPlugin
// ---------------------------------------------------------------------------

namespace {

/// Recursive-descent evaluator for the plugin's expression language.
class ScriptEvaluator {
 public:
  ScriptEvaluator(std::string_view text, PluginContext& context)
      : text_(text), context_(context) {}

  double evaluate() {
    const double value = expr();
    skip_ws();
    if (pos_ != text_.size())
      throw ConfigError("script: trailing characters in expression");
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  bool consume(char ch) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ch) {
      ++pos_;
      return true;
    }
    return false;
  }

  double expr() {
    double value = term();
    for (;;) {
      if (consume('+')) value += term();
      else if (consume('-')) value -= term();
      else return value;
    }
  }

  double term() {
    double value = factor();
    for (;;) {
      if (consume('*')) value *= factor();
      else if (consume('/')) value /= factor();
      else return value;
    }
  }

  double factor() {
    skip_ws();
    if (consume('-')) return -factor();
    if (consume('(')) {
      const double value = expr();
      if (!consume(')')) throw ConfigError("script: missing ')'");
      return value;
    }
    if (pos_ < text_.size() &&
        (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.')) {
      std::size_t used = 0;
      const double value = std::stod(std::string(text_.substr(pos_)), &used);
      pos_ += used;
      return value;
    }
    // function '(' variable ')'
    std::string func;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '_'))
      func += text_[pos_++];
    if (func.empty()) throw ConfigError("script: expected a value");
    if (!consume('(')) throw ConfigError("script: expected '(' after '" + func + "'");
    skip_ws();
    std::string variable;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '_'))
      variable += text_[pos_++];
    if (!consume(')')) throw ConfigError("script: missing ')' after variable");
    return apply(func, variable);
  }

  double apply(const std::string& func, const std::string& variable) {
    NodeRuntime& node = context_.node;
    const VariableSpec& var = node.config.variable(variable);
    auto& index = *node.indexes[static_cast<std::size_t>(context_.server_index)];
    const auto blocks = index.blocks_of(var.id, context_.iteration);
    if (blocks.empty()) return std::numeric_limits<double>::quiet_NaN();
    double acc_min = std::numeric_limits<double>::infinity();
    double acc_max = -std::numeric_limits<double>::infinity();
    double sum = 0.0;
    std::uint64_t count = 0;
    for (const BlockInfo& block : blocks) {
      for (double v : block_as_doubles(context_, block)) {
        acc_min = std::min(acc_min, v);
        acc_max = std::max(acc_max, v);
        sum += v;
        ++count;
      }
    }
    if (func == "min") return acc_min;
    if (func == "max") return acc_max;
    if (func == "sum") return sum;
    if (func == "mean") return count > 0 ? sum / static_cast<double>(count) : 0.0;
    throw ConfigError("script: unknown function '" + func + "'");
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  PluginContext& context_;
};

}  // namespace

ScriptPlugin::ScriptPlugin(const std::map<std::string, std::string>& params)
    : last_value_(std::numeric_limits<double>::quiet_NaN()) {
  auto it = params.find("expr");
  if (it == params.end() || it->second.empty())
    throw ConfigError("script plugin requires an 'expr' parameter");
  expression_ = it->second;
}

void ScriptPlugin::run(PluginContext& context) {
  const double value = ScriptEvaluator(expression_, context).evaluate();
  MutexLock lock(mutex_);
  last_value_ = value;
  last_iteration_ = context.iteration;
}

double ScriptPlugin::last_value() const {
  MutexLock lock(mutex_);
  return last_value_;
}

Iteration ScriptPlugin::last_iteration() const {
  MutexLock lock(mutex_);
  return last_iteration_;
}

// ---------------------------------------------------------------------------
// VisLitePlugin
// ---------------------------------------------------------------------------

VisLitePlugin::VisLitePlugin(const std::map<std::string, std::string>& params) {
  auto it = params.find("variable");
  if (it == params.end())
    throw ConfigError("vislite plugin requires a 'variable' parameter");
  variable_ = it->second;
  isovalue_spec_ = params.contains("isovalue") ? params.at("isovalue") : "mean";
  width_ = params.contains("width") ? std::stoi(params.at("width")) : 128;
  height_ = params.contains("height") ? std::stoi(params.at("height")) : 128;
  write_image_ = params.contains("write_image") && params.at("write_image") == "true";
}

void VisLitePlugin::run(PluginContext& context) {
  Stopwatch timer;
  NodeRuntime& node = context.node;
  const VariableSpec& var = node.config.variable(variable_);
  const LayoutSpec& layout = node.config.layout_of(var);
  if (layout.extents.size() != 3)
    throw ConfigError("vislite: variable '" + variable_ + "' must be 3-D");
  auto& index = *node.indexes[static_cast<std::size_t>(context.server_index)];
  const auto blocks = index.blocks_of(var.id, context.iteration);

  std::uint64_t triangles = 0;
  std::uint64_t rendered = 0;
  std::uint64_t images = 0;
  for (const BlockInfo& block : blocks) {
    const std::vector<double> values = block_as_doubles(context, block);
    viz::GridView grid{values, layout.extents[0], layout.extents[1],
                       layout.extents[2]};
    double isovalue = 0.0;
    if (isovalue_spec_ == "mean") {
      isovalue = viz::compute_statistics(values).mean;
    } else {
      isovalue = std::stod(isovalue_spec_);
    }
    viz::RenderOptions options;
    options.width = width_;
    options.height = height_;
    const viz::PipelineResult result =
        viz::run_insitu_pipeline(grid, isovalue, options);
    triangles += result.triangles;
    ++rendered;

    if (write_image_ && node.storage != nullptr) {
      const std::string path =
          "viz/node" + std::to_string(node.node_id) + "_it" +
          std::to_string(context.iteration) + "_r" +
          std::to_string(block.source) + "_b" + std::to_string(block.block_id) +
          ".ppm";
      std::vector<std::byte> ppm = result.image.encode_ppm();
      if (node.write_behind != nullptr) {
        // Same async emit as the store plugin: a rendered frame must not
        // gate iteration completion on disk latency, and a failed frame
        // is a dropped frame (counted at drain time), not a dead run.
        storage::WriteBehind::Job job;
        job.path = path;
        job.image = std::move(ppm);
        job.on_complete = [this](const Status& st) {
          if (!st.is_ok()) return;  // the queue logged and counted the drop
          MutexLock lock(mutex_);
          ++totals_.images_written;
        };
        node.write_behind->enqueue(std::move(job));
      } else {
        const Status st = storage::write_image(*node.storage, path, ppm);
        if (st.is_ok()) {
          ++images;
        } else {
          // Rendered images are auxiliary output: log the drop and keep
          // the run (and images_written honest) instead of aborting.
          DEDICORE_LOG(kError) << "vislite plugin: dropping '" << path
                               << "': " << st.to_string();
        }
      }
    }
  }

  MutexLock lock(mutex_);
  ++totals_.invocations;
  totals_.blocks_rendered += rendered;
  totals_.triangles += triangles;
  totals_.images_written += images;
  totals_.pipeline_seconds += timer.elapsed_seconds();
}

VisLitePlugin::Totals VisLitePlugin::totals() const {
  MutexLock lock(mutex_);
  return totals_;
}

}  // namespace dedicore::core
