module Api = Ufork_sas.Api

type instr =
  | Push of float
  | Load of int
  | Store of int
  | Add
  | Sub
  | Mul
  | Div
  | Sqrt
  | Sin
  | Cos
  | Dup
  | Pop
  | Load_idx
  | Store_idx
  | Jnz of int
  | Jmp of int
  | Halt

type program = instr array

exception Runtime_error of string

let cycles_per_instr = 25L

(* local 0: accumulator; local 1: loop counter. Loop body:
   acc <- acc + sqrt(i) * sin(i) + cos(acc); i <- i - 1; loop while i > 0. *)
let float_operation ~n =
  if n <= 0 then invalid_arg "float_operation";
  [|
    (* 0 *) Push 0.0;
    (* 1 *) Store 0;
    (* 2 *) Push (float_of_int n);
    (* 3 *) Store 1;
    (* loop head = 4 *)
    (* 4 *) Load 1;
    (* 5 *) Sqrt;
    (* 6 *) Load 1;
    (* 7 *) Sin;
    (* 8 *) Mul;
    (* 9 *) Load 0;
    (* 10 *) Cos;
    (* 11 *) Add;
    (* 12 *) Load 0;
    (* 13 *) Add;
    (* 14 *) Store 0;
    (* 15 *) Load 1;
    (* 16 *) Push 1.0;
    (* 17 *) Sub;
    (* 18 *) Dup;
    (* 19 *) Store 1;
    (* 20 *) Jnz 4;
    (* 21 *) Load 0;
    (* 22 *) Halt;
  |]

(* Deterministic input values for the array kernels (verified against a
   direct OCaml evaluation in the tests). *)
let matmul_a ~n i j = (float_of_int ((i * n) + j) *. 0.01) +. 0.5
let matmul_b ~n i j = (float_of_int ((j * n) + i) *. 0.02) -. 0.25

let matmul_locals ~n = 16 + (3 * n * n)

(* Straight-line code (compile-time loop unrolling, as a template JIT
   would emit): matrices A/B/C live in the locals array. *)
let matmul ~n =
  if n <= 0 then invalid_arg "matmul";
  let base_a = 16 and base_b = 16 + (n * n) and base_c = 16 + (2 * n * n) in
  let code = ref [] in
  let emit i = code := i :: !code in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      emit (Push (matmul_a ~n i j));
      emit (Push (float_of_int (base_a + (i * n) + j)));
      emit Store_idx;
      emit (Push (matmul_b ~n i j));
      emit (Push (float_of_int (base_b + (i * n) + j)));
      emit Store_idx
    done
  done;
  emit (Push 0.0) (* checksum *);
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      emit (Push 0.0) (* acc *);
      for k = 0 to n - 1 do
        emit (Push (float_of_int (base_a + (i * n) + k)));
        emit Load_idx;
        emit (Push (float_of_int (base_b + (k * n) + j)));
        emit Load_idx;
        emit Mul;
        emit Add
      done;
      emit Dup;
      emit (Push (float_of_int (base_c + (i * n) + j)));
      emit Store_idx;
      emit Add (* checksum += acc *)
    done
  done;
  emit Halt;
  Array.of_list (List.rev !code)

let linpack_x i = (float_of_int i *. 0.003) +. 1.0
let linpack_y i = (float_of_int i *. 0.007) -. 0.5
let linpack_locals ~n = 16 + (2 * n)

let linpack ~n =
  if n <= 0 then invalid_arg "linpack";
  let base_x = 16 and base_y = 16 + n in
  let code = ref [] in
  let emit i = code := i :: !code in
  for i = 0 to n - 1 do
    emit (Push (linpack_x i));
    emit (Push (float_of_int (base_x + i)));
    emit Store_idx;
    emit (Push (linpack_y i));
    emit (Push (float_of_int (base_y + i)));
    emit Store_idx
  done;
  (* n daxpy sweeps: y <- y + a_rep * x. *)
  for rep = 1 to n do
    let a = 0.5 +. (float_of_int rep *. 0.1) in
    for i = 0 to n - 1 do
      emit (Push (float_of_int (base_y + i)));
      emit Load_idx;
      emit (Push a);
      emit (Push (float_of_int (base_x + i)));
      emit Load_idx;
      emit Mul;
      emit Add;
      emit (Push (float_of_int (base_y + i)));
      emit Store_idx
    done
  done;
  (* checksum = sum y *)
  emit (Push 0.0);
  for i = 0 to n - 1 do
    emit (Push (float_of_int (base_y + i)));
    emit Load_idx;
    emit Add
  done;
  emit Halt;
  Array.of_list (List.rev !code)

let charge_batch = 256

(* The one interpreter loop, shared by {!run} and {!estimated_cycles}.
   [charge k] is called with the count [k] of instructions executed
   since the last call: once per [charge_batch] instructions, just
   before the batch-completing instruction runs, and once for the
   remainder at [Halt]. The charging points are part of the simulated
   schedule, so they must not move.

   The operand stack is a float array with an int stack pointer, and
   every float op is written inline: a float that crossed a closure
   boundary would be boxed, one allocation per instruction. *)
let interpret ~charge ~locals program =
  let slots = Array.make locals 0.0 in
  let stack = ref (Array.make 64 0.0) in
  let sp = ref 0 in
  let need k = if !sp < k then raise (Runtime_error "stack underflow") in
  let slot i =
    if i < 0 || i >= locals then raise (Runtime_error "bad local") else i
  in
  let executed = ref 0 in
  let pc = ref 0 in
  let running = ref true in
  while !running do
    if !pc < 0 || !pc >= Array.length program then
      raise (Runtime_error "pc out of range");
    incr executed;
    if !executed >= charge_batch then begin
      charge !executed;
      executed := 0
    end;
    (* No instruction grows the stack by more than one. *)
    if !sp = Array.length !stack then begin
      let grown = Array.make (2 * !sp) 0.0 in
      Array.blit !stack 0 grown 0 !sp;
      stack := grown
    end;
    let st = !stack in
    match program.(!pc) with
    | Push v ->
        st.(!sp) <- v;
        incr sp;
        incr pc
    | Load i ->
        st.(!sp) <- slots.(slot i);
        incr sp;
        incr pc
    | Store i ->
        need 1;
        decr sp;
        slots.(slot i) <- st.(!sp);
        incr pc
    | Add ->
        need 2;
        decr sp;
        st.(!sp - 1) <- st.(!sp - 1) +. st.(!sp);
        incr pc
    | Sub ->
        need 2;
        decr sp;
        st.(!sp - 1) <- st.(!sp - 1) -. st.(!sp);
        incr pc
    | Mul ->
        need 2;
        decr sp;
        st.(!sp - 1) <- st.(!sp - 1) *. st.(!sp);
        incr pc
    | Div ->
        need 2;
        decr sp;
        if st.(!sp) = 0.0 then raise (Runtime_error "division by zero");
        st.(!sp - 1) <- st.(!sp - 1) /. st.(!sp);
        incr pc
    | Sqrt ->
        need 1;
        st.(!sp - 1) <- sqrt (Float.abs st.(!sp - 1));
        incr pc
    | Sin ->
        need 1;
        st.(!sp - 1) <- sin st.(!sp - 1);
        incr pc
    | Cos ->
        need 1;
        st.(!sp - 1) <- cos st.(!sp - 1);
        incr pc
    | Dup ->
        need 1;
        st.(!sp) <- st.(!sp - 1);
        incr sp;
        incr pc
    | Pop ->
        need 1;
        decr sp;
        incr pc
    | Load_idx ->
        need 1;
        st.(!sp - 1) <- slots.(slot (int_of_float st.(!sp - 1)));
        incr pc
    | Store_idx ->
        need 1;
        let i = slot (int_of_float st.(!sp - 1)) in
        need 2;
        sp := !sp - 2;
        slots.(i) <- st.(!sp);
        incr pc
    | Jnz target ->
        need 1;
        decr sp;
        if st.(!sp) <> 0.0 then pc := target else incr pc
    | Jmp target -> pc := target
    | Halt -> running := false
  done;
  if !executed > 0 then charge !executed;
  if !sp = 0 then 0.0 else !stack.(!sp - 1)

(* A full batch's cost, boxed once rather than at every charge. *)
let batch_cycles = Int64.mul cycles_per_instr (Int64.of_int charge_batch)

let run (api : Api.t) ?(locals = 16) program =
  interpret
    ~charge:(fun k ->
      api.Api.compute
        (if k = charge_batch then batch_cycles
         else Int64.mul cycles_per_instr (Int64.of_int k)))
    ~locals program

let estimated_cycles ?(locals = 16) program =
  let instructions = ref 0 in
  ignore
    (interpret
       ~charge:(fun k -> instructions := !instructions + k)
       ~locals program);
  Int64.mul cycles_per_instr (Int64.of_int !instructions)

(* Zygote runtime state: a module table whose granule i points to module
   object i; each module object points to a constants block. All capability
   links, so fork relocation is exercised on every hop. *)
let zygote_got_slot = 1

let zygote_init (api : Api.t) ~modules =
  if modules <= 0 then invalid_arg "zygote_init";
  let table = api.Api.malloc ((modules + 1) * 16) in
  api.Api.write_u64 table ~off:0 (Int64.of_int modules);
  for i = 1 to modules do
    let m = api.Api.malloc 256 in
    api.Api.write_u64 m ~off:0 (Int64.of_int i);
    let consts = api.Api.malloc 512 in
    api.Api.write_bytes consts ~off:0
      (Bytes.make 512 (Char.chr (i land 0xff)));
    api.Api.store_cap m ~off:16 consts;
    api.Api.store_cap table ~off:(i * 16) m;
    (* Import machinery: parsing + compiling the module. *)
    api.Api.compute 120_000L
  done;
  api.Api.got_set zygote_got_slot table

let zygote_check (api : Api.t) =
  let table = api.Api.got_get zygote_got_slot in
  let n = Int64.to_int (api.Api.read_u64 table ~off:0) in
  for i = 1 to n do
    let m = api.Api.load_cap table ~off:(i * 16) in
    let id = Int64.to_int (api.Api.read_u64 m ~off:0) in
    if id <> i then failwith "zygote_check: corrupted module table";
    let consts = api.Api.load_cap m ~off:16 in
    let b = api.Api.read_bytes consts ~off:0 ~len:1 in
    if Char.code (Bytes.get b 0) <> i land 0xff then
      failwith "zygote_check: corrupted constants"
  done;
  n
