#include "storage/backend.hpp"

#include <memory>
#include <string_view>

namespace dedicore::storage {

Status validate_backend_path(const std::string& path) {
  if (path.empty() || path.front() == '/')
    return Status::invalid_argument(
        "storage: path must be non-empty and relative, got '" + path + "'");
  std::string_view rest(path);
  while (!rest.empty()) {
    const auto slash = rest.find('/');
    const std::string_view part = rest.substr(0, slash);
    if (part == "..")
      return Status::invalid_argument("storage: path '" + path +
                                      "' escapes the storage root");
    if (slash == std::string_view::npos) break;
    rest.remove_prefix(slash + 1);
  }
  return Status::ok();
}

Status write_image(StorageBackend& backend, const std::string& path,
                   std::span<const std::byte> image, int stripe_count,
                   double* seconds) {
  FileHandle file;
  if (Status st = backend.create(path, &file, stripe_count); !st.is_ok())
    return st;
  const Status wrote = backend.write(file, image, seconds);
  const Status closed = backend.close(file);
  if (!wrote.is_ok()) return wrote;
  return closed;
}

std::uint64_t WritePlan::bytes() const noexcept {
  std::uint64_t total = 0;
  for (const WritePart& part : parts) total += part.bytes;
  return total;
}

Status WritePlan::run() const {
  for (const WritePart& part : parts)
    if (Status st = part.run(nullptr); !st.is_ok()) return st;
  return commit ? commit() : Status::ok();
}

WritePlan StorageBackend::plan_write(const std::string& path,
                                     std::vector<std::byte> image,
                                     int stripe_count) {
  const std::uint64_t bytes = image.size();
  auto owned = std::make_shared<const std::vector<std::byte>>(std::move(image));
  WritePlan plan;
  plan.parts.push_back(
      {bytes, [this, path, stripe_count, owned](double* seconds) {
         return write_image(*this, path, *owned, stripe_count, seconds);
       }});
  return plan;
}

}  // namespace dedicore::storage
