#ifndef UPSKILL_EXEC_BACKEND_REGISTRY_H_
#define UPSKILL_EXEC_BACKEND_REGISTRY_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "exec/backend.h"

namespace upskill {
namespace exec {

/// Builds the backend behind `--backend` and SkillModelConfig::backend:
/// "serial" (the shared SerialBackend) or "pool" (a thread-pool backend
/// with max(1, num_threads) workers). "" and "auto" resolve to "pool"
/// when num_threads > 1 and "serial" otherwise. Any other name fails
/// with InvalidArgument listing the known names.
Result<std::shared_ptr<Backend>> CreateBackend(const std::string& name,
                                               int num_threads);

}  // namespace exec
}  // namespace upskill

#endif  // UPSKILL_EXEC_BACKEND_REGISTRY_H_
