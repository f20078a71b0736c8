#include "span_trace.hh"

#include <fstream>
#include <stdexcept>

#include "json_out.hh"

namespace perfbench {

namespace {

/** Layer of a span name: text before the first '.'. */
std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

} // namespace

Tracer::Tracer(bool enabled) : _enabled(enabled), _origin(Clock::now()) {}

double
Tracer::now() const
{
    return std::chrono::duration<double>(Clock::now() - _origin).count();
}

Tracer::Span::Span(Tracer *tracer, std::string name) : _tracer(tracer)
{
    if (_tracer) {
        Record r;
        r.name = std::move(name);
        r.parent = _tracer->_open.empty() ? -1 : _tracer->_open.back();
        _index = static_cast<int>(_tracer->_records.size());
        _tracer->_records.push_back(std::move(r));
        _tracer->_open.push_back(_index);
    }
    // Read the clock last so bookkeeping is not charged to the callee.
    _start = Clock::now();
    if (_tracer) {
        _tracer->_records.back().start =
            std::chrono::duration<double>(_start - _tracer->_origin).count();
    }
}

Tracer::Span::~Span()
{
    if (!_tracer)
        return;
    _tracer->_records[static_cast<std::size_t>(_index)].end = _tracer->now();
    _tracer->_open.pop_back();
}

double
Tracer::Span::seconds() const
{
    return std::chrono::duration<double>(Clock::now() - _start).count();
}

void
Tracer::Span::attribute(const std::string &layer, double seconds)
{
    if (_tracer) {
        _tracer->_records[static_cast<std::size_t>(_index)]
            .attributed.emplace_back(layer, seconds);
    }
}

double
Tracer::total(const std::string &name) const
{
    double sum = 0.0;
    for (const Record &r : _records) {
        if (r.name == name)
            sum += r.end - r.start;
    }
    return sum;
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    // Spans nest strictly (one thread, RAII), so children never overlap
    // and their union is their sum.
    std::vector<double> self(_records.size());
    for (std::size_t i = 0; i < _records.size(); ++i)
        self[i] = _records[i].end - _records[i].start;
    for (const Record &r : _records) {
        if (r.parent >= 0)
            self[static_cast<std::size_t>(r.parent)] -= r.end - r.start;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < _records.size(); ++i) {
        double own = self[i];
        for (const auto &[layer, seconds] : _records[i].attributed) {
            out[layer] += seconds;
            own -= seconds;
        }
        out[layerOf(_records[i].name)] += own;
    }
    return out;
}

void
Tracer::writeJson(const std::string &path) const
{
    std::ofstream os(path);
    os << "{\"spans\": [\n";
    for (std::size_t i = 0; i < _records.size(); ++i) {
        const Record &r = _records[i];
        os << "  {\"id\": " << i << ", \"name\": " << jsonString(r.name)
           << ", \"start\": " << jsonNumber(r.start)
           << ", \"end\": " << jsonNumber(r.end)
           << ", \"parent\": " << r.parent;
        if (!r.attributed.empty()) {
            os << ", \"attributed\": {";
            for (std::size_t k = 0; k < r.attributed.size(); ++k) {
                os << (k ? ", " : "") << jsonString(r.attributed[k].first)
                   << ": " << jsonNumber(r.attributed[k].second);
            }
            os << "}";
        }
        os << "}" << (i + 1 < _records.size() ? "," : "") << "\n";
    }
    os << "]}\n";
    if (!os)
        throw std::runtime_error("cannot write span trace to " + path);
}

} // namespace perfbench
