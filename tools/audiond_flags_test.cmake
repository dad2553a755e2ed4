# Runs audiond with malformed and out-of-range numeric flag values, and with
# flags it no longer has; each must be refused while the command line is
# parsed, with exit status 1, so no server ever starts. Values that are valid but used to be mangled are
# checked with a trailing --help, which exits 0 only if every flag before it
# parsed.
#
#   cmake -DAUDIOND=<path to audiond> -P audiond_flags_test.cmake

if(NOT AUDIOND)
  message(FATAL_ERROR "pass -DAUDIOND=<path to audiond>")
endif()

set(failures 0)

function(expect_exit expected)
  execute_process(COMMAND ${AUDIOND} ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err
                  TIMEOUT 10)
  if(NOT "${rc}" STREQUAL "${expected}")
    message(SEND_ERROR "audiond ${ARGN}: exit ${rc}, want ${expected}\n${err}")
    math(EXPR n "${failures} + 1")
    set(failures ${n} PARENT_SCOPE)
  endif()
endfunction()

# Not a number, trailing junk, or a missing value.
expect_exit(1 --port abc)
expect_exit(1 --port 80x)
expect_exit(1 --port " 80")
expect_exit(1 --port)
expect_exit(1 --drain-ms 1.5)
# Outside the option's own type.
expect_exit(1 --port 70000)
expect_exit(1 --port -1)
expect_exit(1 --metrics-port 65536)
expect_exit(1 --quota-sound-bytes -1)
expect_exit(1 --quota-sound-bytes 18446744073709551616)
expect_exit(1 --limit-bps -3000000000)
expect_exit(1 --limit-bps 99999999999999999999)
expect_exit(1 --limit-rps 4294967296)
expect_exit(1 --trace-sample -4)
expect_exit(1 --stats-interval-ms 2147483648)
# Outside the option's own range.
expect_exit(1 --speakers 0)
expect_exit(1 --lines 65)
expect_exit(1 --egress-buffer-bytes 0)
expect_exit(1 --drain-ms -5)
# A bad value stops the parse even when valid flags follow it.
expect_exit(1 --port abc --help)
# Flags of the removed thread-per-connection plane are refused, not ignored.
expect_exit(1 --connection-threads 4 --help)
expect_exit(1 --loop-poll --help)
expect_exit(1 --loop-edge --help)

# 64-bit byte counts above 2^31 parse intact (they used to wrap negative and
# silently disable the limit).
expect_exit(0 --quota-sound-bytes 3000000000 --help)
expect_exit(0 --limit-bps 3000000000 --limit-bps-burst 6000000000 --help)

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} audiond flag case(s) failed")
endif()
