#include "analysis/error_bounds.hpp"

#include <algorithm>

namespace dlis::analysis {

double
NetworkErrorModel::unitDelta(size_t i, ConvAlgo algo) const
{
    const UnitAnalysis &ua = units[i];
    switch (algo) {
      case ConvAlgo::Direct:     return ua.deltaDirect;
      case ConvAlgo::Im2colGemm: return ua.deltaIm2col;
    }
    return ua.deltaDirect;
}

double
NetworkErrorModel::contribution(size_t i, ConvAlgo algo) const
{
    return unitDelta(i, algo) * suffix[i];
}

double
NetworkErrorModel::minContribution(size_t i) const
{
    const UnitAnalysis &ua = units[i];
    return std::min(ua.deltaDirect, ua.deltaIm2col) * suffix[i];
}

double
NetworkErrorModel::minTotal() const
{
    double t = 0.0;
    for (size_t i = 0; i < units.size(); ++i)
        t += minContribution(i);
    return t;
}

double
NetworkErrorModel::endToEnd(ConvAlgo algo) const
{
    double t = 0.0;
    for (size_t i = 0; i < units.size(); ++i)
        t += contribution(i, algo);
    return t;
}

double
NetworkErrorModel::endToEnd(const LayerExecOverride &point) const
{
    double t = 0.0;
    for (size_t i = 0; i < units.size(); ++i)
        t += contribution(
            i, units[i].layer->resolveExec(point).value_or(point).convAlgo);
    return t;
}

size_t
NetworkErrorModel::indexOf(const Layer *layer) const
{
    for (size_t i = 0; i < units.size(); ++i)
        if (units[i].layer == layer)
            return i;
    return units.size();
}

bool
NetworkErrorModel::withinBudget(const Layer *layer, ConvAlgo algo,
                                double budget) const
{
    if (budget <= 0.0 || !complete)
        return true;
    const size_t i = indexOf(layer);
    if (i == units.size())
        return true;
    // Even with the cheapest choice everywhere else, does this
    // candidate keep the end-to-end bound under budget?
    const double othersMin = minTotal() - minContribution(i);
    return contribution(i, algo) + othersMin <= budget;
}

NetworkErrorModel
buildErrorModel(const Network &net, const Shape &input,
                const Interval &inputRange)
{
    RangeReport rr = propagateRanges(net, input, inputRange);
    NetworkErrorModel model;
    model.units = std::move(rr.units);
    model.diagnostics = std::move(rr.diagnostics);
    model.complete = rr.complete;

    model.suffix.assign(model.units.size(), 1.0);
    double prod = 1.0;
    for (size_t i = model.units.size(); i-- > 0;) {
        model.suffix[i] = prod;
        prod *= model.units[i].amplification;
    }
    return model;
}

} // namespace dlis::analysis
