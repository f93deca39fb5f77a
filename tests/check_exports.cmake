# Fails unless the shared library LIB exports exactly the AMGEN_API
# functions declared in HEADER: `nm -D --defined-only` must list each of
# them and nothing else.
#
#   cmake -DNM=nm -DLIB=libamgen.so -DHEADER=include/amgen.h \
#         -P check_exports.cmake
execute_process(COMMAND ${NM} -D --defined-only ${LIB}
                OUTPUT_VARIABLE nm_out RESULT_VARIABLE nm_rc)
if(NOT nm_rc EQUAL 0)
  message(FATAL_ERROR "'${NM} -D --defined-only ${LIB}' failed (${nm_rc})")
endif()
string(REGEX MATCHALL "[^ \n]+\n" nm_syms "${nm_out}")
set(exported)
foreach(sym IN LISTS nm_syms)
  string(STRIP "${sym}" sym)
  list(APPEND exported "${sym}")
endforeach()

file(READ ${HEADER} header)
string(REGEX MATCHALL "AMGEN_API [^(]*\\(" decls "${header}")
set(declared)
foreach(decl IN LISTS decls)
  if(decl MATCHES "(amg_[a-z0-9_]+)\\($")
    list(APPEND declared "${CMAKE_MATCH_1}")
  endif()
endforeach()

list(SORT exported)
list(SORT declared)
set(extra ${exported})
list(REMOVE_ITEM extra ${declared})
set(missing ${declared})
list(REMOVE_ITEM missing ${exported})
list(LENGTH exported n_exported)
list(LENGTH declared n_declared)
if(extra OR missing OR n_declared EQUAL 0)
  list(LENGTH extra n_extra)
  list(SUBLIST extra 0 20 extra_head)
  message(FATAL_ERROR
    "${LIB}: ${n_exported} exported symbols, ${n_declared} AMGEN_API functions\n"
    "missing: ${missing}\n"
    "${n_extra} not in the C API (first 20): ${extra_head}")
endif()
message(STATUS "${LIB}: exports exactly the ${n_declared} AMGEN_API functions")
