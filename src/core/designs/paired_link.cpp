#include "core/designs/paired_link.h"

namespace xp::core {

std::vector<Observation> tte_contrast(std::span<const Observation> rows) {
  RowFilter treated_filter;
  treated_filter.link = kMostlyTreatedLink;
  treated_filter.treated = 1;
  RowFilter control_filter;
  control_filter.link = kMostlyControlLink;
  control_filter.treated = 0;
  return cross_cell_contrast(rows, treated_filter, control_filter);
}

std::vector<Observation> cross_cell_contrast(std::span<const Observation> rows,
                                             const RowFilter& exposed,
                                             const RowFilter& control) {
  std::size_t matched = 0;
  for (const Observation& row : rows) {
    matched += matches(row, exposed);
    matched += matches(row, control);
  }
  std::vector<Observation> obs;
  obs.reserve(matched);
  const auto append = [&](const RowFilter& filter, bool treated) {
    for (const Observation& row : rows) {
      if (!matches(row, filter)) continue;
      obs.push_back(row);
      obs.back().treated = treated;
    }
  };
  append(exposed, true);
  append(control, false);
  return obs;
}

}  // namespace xp::core
