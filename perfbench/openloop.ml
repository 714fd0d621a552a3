(* An open-loop request generator, kept apart from the transport so its
   accounting can be tested against a fake clock and server.

   Requests are due on a fixed schedule whatever the server does, so a
   stall shows up as latency on every later request: each latency is
   measured from when the request was due, not from when the generator
   got round to sending it.  How late the generator itself ran is
   reported separately (lag). *)

type 'h ops = {
  now : unit -> float;
  sleep : float -> unit;
  submit : int -> [ `Sent of 'h | `Busy | `Failed ];
  poll : 'h -> bool option;
      (** [None] while pending; [Some ok] once the request finished *)
  idle : unit -> bool;
      (** one unit of deferred work (e.g. checking a reply); [false] when
          there was none *)
}

type sample = {
  due : float;
  mutable sent : float;  (** first send attempt; [nan] if never sent *)
  mutable finished : float;  (** [nan] if it never finished *)
  mutable ok : bool;
  mutable polls : int;
  mutable busy : int;
}

let schedule ~start ~rate ~count =
  Array.init count (fun i -> start +. (float_of_int i /. rate))

(* Longest sleep between passes, and how long after the last due time
   outstanding requests are given up on. *)
let poll_interval = 2e-4
let drain_timeout = 30.

let run ops ~due =
  let n = Array.length due in
  let samples =
    Array.map
      (fun d ->
        { due = d; sent = nan; finished = nan; ok = false; polls = 0; busy = 0 })
      due
  in
  let next = ref 0 in
  let pending = ref [] in
  let deadline = if n = 0 then 0. else due.(n - 1) +. drain_timeout in
  let finish i ok =
    samples.(i).finished <- ops.now ();
    samples.(i).ok <- ok
  in
  let rec loop () =
    (* send everything that is due; a BUSY request stays next in line *)
    let rec send () =
      if !next < n && samples.(!next).due <= ops.now () then begin
        let i = !next in
        let s = samples.(i) in
        if Float.is_nan s.sent then s.sent <- ops.now ();
        match ops.submit i with
        | `Sent h ->
            pending := (i, h) :: !pending;
            incr next;
            send ()
        | `Failed ->
            finish i false;
            incr next;
            send ()
        | `Busy -> s.busy <- s.busy + 1
      end
    in
    send ();
    let progressed = ref false in
    pending :=
      List.filter
        (fun (i, h) ->
          samples.(i).polls <- samples.(i).polls + 1;
          match ops.poll h with
          | None -> true
          | Some ok ->
              finish i ok;
              progressed := true;
              false)
        (List.rev !pending)
      |> List.rev;
    if !next >= n && !pending = [] then ()
    else if ops.now () > deadline then ()
    else begin
      if not (!progressed || ops.idle ()) then begin
        let wait =
          if !pending <> [] || !next >= n then poll_interval
          else Float.max 0. (samples.(!next).due -. ops.now ())
        in
        if wait > 0. then ops.sleep (Float.min wait poll_interval)
      end;
      loop ()
    end
  in
  if n > 0 then loop ();
  while ops.idle () do () done;
  samples

type summary = {
  attempted : int;
  completed : int;  (** finished with a correct reply *)
  failed : int;  (** refused, failed, wrong or never finished *)
  latency : float array;  (** seconds from due to reply, completed only *)
  lag : float array;  (** seconds from due to first send, sent only *)
  polls_per_request : float;
  late_frac : float;  (** share of requests first sent > [late] after due *)
  busy : int;
}

(* A request first sent more than this after it was due counts as late. *)
let late = 1e-3

let summarize samples =
  let done_ok = List.filter (fun s -> s.ok) (Array.to_list samples) in
  let sent =
    List.filter (fun s -> not (Float.is_nan s.sent)) (Array.to_list samples)
  in
  let attempted = Array.length samples in
  let lag = Array.of_list (List.map (fun s -> s.sent -. s.due) sent) in
  {
    attempted;
    completed = List.length done_ok;
    failed = attempted - List.length done_ok;
    latency = Array.of_list (List.map (fun s -> s.finished -. s.due) done_ok);
    lag;
    polls_per_request =
      (if done_ok = [] then 0.
       else
         float_of_int (List.fold_left (fun a s -> a + s.polls) 0 done_ok)
         /. float_of_int (List.length done_ok));
    late_frac =
      (if attempted = 0 then 0.
       else
         float_of_int
           (Array.fold_left (fun a l -> if l > late then a + 1 else a) 0 lag)
         /. float_of_int attempted);
    busy = Array.fold_left (fun a (s : sample) -> a + s.busy) 0 samples;
  }

(* A backlog that keeps growing shows as latency climbing through the
   run: the last quarter's median far above the first quarter's. *)
let backlog_growing samples =
  let n = Array.length samples in
  let lat a b =
    Array.sub samples a (b - a)
    |> Array.to_list
    |> List.filter (fun s -> s.ok)
    |> List.map (fun s -> s.finished -. s.due)
    |> Array.of_list |> Sf_util.Stats.median
  in
  n >= 8
  &&
  let first = lat 0 (n / 4) and last = lat (n - (n / 4)) n in
  Float.is_nan last || last > (2. *. first) +. 1e-3
