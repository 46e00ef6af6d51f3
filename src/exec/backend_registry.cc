#include "exec/backend_registry.h"

namespace upskill {
namespace exec {

Result<std::shared_ptr<Backend>> CreateBackend(const std::string& name,
                                               int num_threads) {
  const std::string resolved =
      (name.empty() || name == "auto") ? (num_threads > 1 ? "pool" : "serial")
                                       : name;
  if (resolved == "serial") {
    // The shared stateless singleton; the no-op deleter keeps ownership
    // semantics uniform with the pooled backend.
    return std::shared_ptr<Backend>(SerialBackend::Get(), [](Backend*) {});
  }
  if (resolved == "pool") {
    return std::shared_ptr<Backend>(
        std::make_shared<ThreadPoolBackend>(num_threads));
  }
  return Status::InvalidArgument("unknown backend '" + name +
                                 "' (known: pool, serial)");
}

}  // namespace exec
}  // namespace upskill
