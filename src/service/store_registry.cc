#include "service/store_registry.h"

#include <cinttypes>
#include <cstdio>

#ifndef _WIN32
#include <sys/stat.h>
#endif

#include "common/thread_pool.h"

namespace flipper {
namespace service {
namespace {

struct FileStamp {
  uint64_t size = 0;
  uint64_t mtime_ns = 0;
};

Result<FileStamp> StatFile(const std::string& path) {
#ifdef _WIN32
  (void)path;
  return Status::FailedPrecondition("store registry requires POSIX stat");
#else
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::IoError("cannot stat store file: " + path);
  }
  FileStamp stamp;
  stamp.size = static_cast<uint64_t>(st.st_size);
  stamp.mtime_ns = static_cast<uint64_t>(st.st_mtim.tv_sec) *
                       1'000'000'000ull +
                   static_cast<uint64_t>(st.st_mtim.tv_nsec);
  return stamp;
#endif
}

/// FNV-1a over the identity-bearing numbers; rendered as 16 hex chars.
std::string Fingerprint(const FileStamp& stamp,
                        const storage::FileHeader& header) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(stamp.size);
  mix(stamp.mtime_ns);
  mix(header.num_transactions);
  mix(header.num_items);
  mix(header.version);
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

}  // namespace

Status StoreRegistry::Add(const std::string& name,
                          const std::string& path) {
  if (name.empty() || name.find(' ') != std::string::npos) {
    return Status::InvalidArgument(
        "store name must be non-empty and contain no spaces, got '" +
        name + "'");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stores_.count(name) > 0) {
      return Status::AlreadyExists("store '" + name +
                                   "' is already registered");
    }
  }
  FLIPPER_ASSIGN_OR_RETURN(std::shared_ptr<const StoreEntry> entry,
                           Load(name, path));
  std::lock_guard<std::mutex> lock(mu_);
  if (!stores_.emplace(name, std::move(entry)).second) {
    return Status::AlreadyExists("store '" + name +
                                 "' is already registered");
  }
  return Status::OK();
}

Result<std::shared_ptr<const StoreEntry>> StoreRegistry::Get(
    const std::string& name) {
  std::shared_ptr<const StoreEntry> current;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = stores_.find(name);
    if (it == stores_.end()) {
      return Status::NotFound("unknown store '" + name + "'");
    }
    current = it->second;
  }
  FLIPPER_ASSIGN_OR_RETURN(FileStamp stamp, StatFile(current->path));
  if (stamp.size == current->file_size &&
      stamp.mtime_ns == current->mtime_ns) {
    return current;
  }
  // The file changed under us: reload outside the lock (slow), then
  // publish. A concurrent reload of the same store is harmless — last
  // writer wins, both entries are valid snapshots, and in-flight
  // queries keep whatever entry they already hold.
  FLIPPER_ASSIGN_OR_RETURN(std::shared_ptr<const StoreEntry> fresh,
                           Load(name, current->path));
  std::lock_guard<std::mutex> lock(mu_);
  stores_[name] = fresh;
  return fresh;
}

std::vector<std::string> StoreRegistry::Names() const {
  std::vector<std::string> names;
  std::lock_guard<std::mutex> lock(mu_);
  names.reserve(stores_.size());
  for (const auto& [name, entry] : stores_) names.push_back(name);
  return names;
}

Result<std::shared_ptr<const StoreEntry>> StoreRegistry::Load(
    const std::string& name, const std::string& path) const {
  FLIPPER_ASSIGN_OR_RETURN(FileStamp stamp, StatFile(path));
  // One load-only pool runs the sharded open and the view build; the
  // reader and the views keep no reference to it.
  ThreadPool build_pool(options_.build_threads);
  storage::OpenOptions open_options;
  open_options.validate = options_.validate;
  open_options.pool = &build_pool;
  FLIPPER_ASSIGN_OR_RETURN(storage::StoreReader reader,
                           storage::StoreReader::Open(path, open_options));
  // Build the shared views once, catalogs included.
  LevelViews::BuildOptions view_options;
  view_options.build_catalogs = true;
  auto views = LevelViews::Build(reader.db(), reader.taxonomy(),
                                 &build_pool, view_options);
  if (!views.ok()) return views.status();
  auto entry = std::make_shared<StoreEntry>(std::move(reader),
                                            std::move(views).value());
  entry->name = name;
  entry->path = path;
  entry->file_size = stamp.size;
  entry->mtime_ns = stamp.mtime_ns;
  entry->fingerprint = Fingerprint(stamp, entry->reader.header());
  return std::shared_ptr<const StoreEntry>(std::move(entry));
}

}  // namespace service
}  // namespace flipper
