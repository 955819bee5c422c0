// StoreRegistry: the daemon's set of long-lived, shared FlipperStore
// mappings. Each named store is opened (mmapped) once into a
// StoreEntry — the StoreReader plus level views pre-built with
// catalogs and a content fingerprint — and every concurrent query
// borrows the same immutable entry via shared_ptr, so admission never
// re-reads or re-generalizes the dataset.
//
// Invalidation is stat-based: Get() re-stats the file and, when size
// or mtime changed, reopens the store into a fresh entry with a new
// fingerprint while in-flight queries keep the old entry alive through
// their shared_ptr. Result-cache keys embed the fingerprint, so a
// reload implicitly invalidates every cached body of the old contents.

#ifndef FLIPPER_SERVICE_STORE_REGISTRY_H_
#define FLIPPER_SERVICE_STORE_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/level_views.h"
#include "storage/store_reader.h"

namespace flipper {
namespace service {

/// One opened store: immutable once published; queries only read it.
struct StoreEntry {
  StoreEntry(storage::StoreReader r, LevelViews v)
      : reader(std::move(r)), views(std::move(v)) {}

  std::string name;
  std::string path;
  /// Content fingerprint (file size + mtime + header identity); part
  /// of every result-cache key derived from this entry.
  std::string fingerprint;
  /// Must be declared before `views`: the views' leaf level borrows
  /// the reader's decoded columns or mapping (LevelViews::Build's
  /// lifetime contract), so the views have to be destroyed first.
  storage::StoreReader reader;
  /// Pre-built with catalogs over all levels. Queries whose config
  /// disables skipping simply never consult them — results stay
  /// byte-identical to a solo run either way (see
  /// CellPipeline::Execute's borrowed-views contract).
  LevelViews views;
  uint64_t file_size = 0;
  uint64_t mtime_ns = 0;
};

class StoreRegistry {
 public:
  struct Options {
    /// Run the payload-validation scan on open (OpenOptions::validate).
    bool validate = true;
    /// Worker threads for loading a store — the sharded open and the
    /// one-time view build (0 = hardware).
    int build_threads = 0;
  };

  StoreRegistry() : StoreRegistry(Options()) {}
  explicit StoreRegistry(const Options& options) : options_(options) {}

  /// Opens `path` and publishes it under `name`. Fails on duplicate
  /// names and on any open/build error.
  Status Add(const std::string& name, const std::string& path);

  /// The current entry for `name`, reloading first when the file
  /// changed on disk since the entry was built.
  Result<std::shared_ptr<const StoreEntry>> Get(const std::string& name);

  /// Registered store names, sorted.
  std::vector<std::string> Names() const;

 private:
  Result<std::shared_ptr<const StoreEntry>> Load(
      const std::string& name, const std::string& path) const;

  const Options options_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const StoreEntry>> stores_;
};

}  // namespace service
}  // namespace flipper

#endif  // FLIPPER_SERVICE_STORE_REGISTRY_H_
