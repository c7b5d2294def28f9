#include "obs/telemetry.h"

namespace scanraw {
namespace obs {

std::string Telemetry::ToJson() const {
  return "{\"metrics\":" + metrics_.ToJson() +
         ",\"resource_samples\":" + resources_.ToJson() + "}\n";
}

}  // namespace obs
}  // namespace scanraw
