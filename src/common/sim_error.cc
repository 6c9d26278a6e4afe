#include "common/sim_error.hh"

#include "common/json.hh"

namespace mtfpu
{

void
unknownName(ErrCode code, const char *what, std::string_view name)
{
    throw SimError(code, std::string("unknown ") + what + " '" +
                             std::string(name) + "'");
}

std::string
SimError::to_json() const
{
    json::Writer w;
    const auto field = [&w](const char *name, int64_t value) {
        if (value < 0)
            w.key(name).null();
        else
            w.key(name).value(value);
    };
    w.beginObject();
    w.key("code").value(enumName(code_));
    w.key("message").value(what());
    field("cycle", context_.cycle);
    field("pc", context_.pc);
    field("instr", context_.instr);
    w.endObject();
    return w.str();
}

} // namespace mtfpu
